"""Differential property tests of the noisy step.

For random covers of every layout the compiled kernel distinguishes (equal
polygon sizes in random or vertex order, partial covers, polygons of
different sizes in random or vertex order, empty tessellations) and random noise plans, three routes
must agree: the patched fast step ``plan_step``, the step on the materialized
perturbed cover ``step(apply_plan(...))`` and the dense oracle.  Covers and
states are drawn complex or real, so the float64 route that a real cover
takes with a real state faces the oracle too, on every layout and under both
noise kinds.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwsim.evolve import WalkState, step
from sqwsim.graph import Polygon, SimpleGraph, Tessellation, TessellatedGraph
from sqwsim.noise import KINDS, SPLIT_POLICIES, NoiseSpec, plan_step, sample_plan
from sqwsim.oracle import apply_plan, dense_step_matrix, tessellation_of

#: Equal-size polygons over a random permutation of all vertices, over the
#: vertices in order, over a random subset, over a leading run 0..E-1;
#: a singleton and polygons of sizes 2..12 over a random subset, or over a
#: leading run 0..E-1 (one block per size, none in place); no polygons.
LAYOUTS = ("equal", "in_order", "partial", "partial_in_order", "ragged", "ragged_in_order", "empty")


def _amplitudes(rng: np.random.Generator, size: int, real: bool) -> np.ndarray:
    mags, phases = rng.uniform(0.3, 1.0, size), rng.uniform(0.0, 2.0 * np.pi, size)
    # a real amplitude has phase 0 or pi
    amps = np.where(phases < np.pi, mags, -mags) if real else mags * np.exp(1j * phases)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


def _tessellation(rng: np.random.Generator, layout: str, num: int, real: bool) -> Tessellation:
    if layout == "empty":
        return tessellation_of(())
    if layout in ("ragged", "ragged_in_order"):
        count = int(rng.integers(1, num + 1))
        covered = rng.permutation(num)[:count] if layout == "ragged" else np.arange(count)
        # a singleton first, then larger polygons, so sizes differ; a polygon
        # of 9 or more entries sums in another order than a shorter one
        sizes = [1]
        while sum(sizes) < covered.size:
            sizes.append(min(int(rng.integers(2, 13)), covered.size - sum(sizes)))
    else:
        if layout in ("equal", "in_order"):
            count = num
        else:
            count = int(rng.integers(1, num + 1))
        size = int(rng.choice([m for m in range(1, count + 1) if count % m == 0]))
        if layout == "equal":
            covered = rng.permutation(num)
        elif layout == "partial":
            covered = rng.permutation(num)[:count]
        else:
            covered = np.arange(count)
        sizes = [size] * (count // size)
    bounds = np.cumsum([0] + sizes)
    polys = tuple(Polygon(covered[a:b], _amplitudes(rng, b - a, real)) for a, b in zip(bounds[:-1], bounds[1:]))
    return tessellation_of(polys)


def _cover(rng: np.random.Generator, layouts: list[str], num: int, real: bool) -> TessellatedGraph:
    return _cover_of(num, tuple(_tessellation(rng, layout, num, real) for layout in layouts))


def _cover_of(num: int, tessellations: tuple[Tessellation, ...]) -> TessellatedGraph:
    edges = {
        (int(min(a, b)), int(max(a, b)))
        for tess in tessellations
        for poly in tess.polygons
        for i, a in enumerate(poly.vertices)
        for b in poly.vertices[i + 1 :]
    }
    return TessellatedGraph(SimpleGraph(num, frozenset(edges)), tessellations)


@st.composite
def covers(draw) -> TessellatedGraph:
    """Covers with amplitudes of random phases, or of phase 0 or pi only."""
    num = draw(st.integers(1, 12))
    layouts = draw(st.lists(st.sampled_from(LAYOUTS), min_size=1, max_size=3))
    real = draw(st.booleans())
    return _cover(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), layouts, num, real)


@st.composite
def noise_specs(draw, num_tessellations: int) -> NoiseSpec:
    p = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    if draw(st.booleans()):
        return NoiseSpec(kind="break_vertices", p=p)
    scope = draw(st.none() | st.sets(st.integers(0, num_tessellations - 1), min_size=1).map(tuple))
    return NoiseSpec(kind="break_polygons", p=p, split_policy=draw(st.sampled_from(SPLIT_POLICIES)), scope=scope)


def _check_routes(tg: TessellatedGraph, spec: NoiseSpec, rng: np.random.Generator, real_state: bool) -> None:
    vec = rng.normal(size=tg.num_vertices)
    if not real_state:
        vec = vec + 1j * rng.normal(size=tg.num_vertices)
    state = WalkState(vec / np.sqrt(np.sum(np.abs(vec) ** 2)))

    plan = sample_plan(tg, spec, rng)
    fast = plan_step(plan, state)
    perturbed = apply_plan(tg, plan)
    slow = step(perturbed, state).amplitudes
    dense = dense_step_matrix(perturbed).entries @ state.amplitudes
    np.testing.assert_allclose(fast.amplitudes, slow, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast.amplitudes, dense, rtol=0, atol=1e-12)
    # the float64 route is taken exactly when the cover and the state are real
    real_cover = not any(tess.amplitudes.imag.any() for tess in tg.tessellations)
    assert (fast._amps.dtype == np.float64) == (real_cover and real_state)


@settings(max_examples=500)
@given(data=st.data())
def test_plan_step_matches_materialized_cover_and_dense_oracle(data):
    tg = data.draw(covers())
    spec = data.draw(noise_specs(tg.num_tessellations))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _check_routes(tg, spec, rng, real_state=data.draw(st.booleans()))


@pytest.mark.parametrize("kind", KINDS[1:])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_real_route_matches_materialized_cover_and_dense_oracle(layout, kind):
    # every layout under both noise kinds on the float64 route, whatever
    # hypothesis happens to draw; each cover pairs the layout with a second
    # tessellation of each layout, so masks meet every neighbour layout
    if kind == "break_vertices":
        specs = [NoiseSpec(kind=kind, p=0.5)]
    else:
        specs = [NoiseSpec(kind=kind, p=0.5, split_policy=split) for split in SPLIT_POLICIES]
    for seed, other in enumerate(LAYOUTS):
        rng = np.random.default_rng([seed, LAYOUTS.index(layout), KINDS.index(kind)])
        tg = _cover(rng, [layout, other], int(rng.integers(2, 13)), real=True)
        for spec in specs:
            _check_routes(tg, spec, rng, real_state=True)


@pytest.mark.parametrize("real_state", [True, False])
@pytest.mark.parametrize("realness", [(True, False), (False, True), (True, False, True)])
def test_mixed_covers_match_materialized_cover_and_dense_oracle(realness, real_state):
    # a cover with real and complex tessellations walks in complex128, with
    # each real tessellation reflecting the real and imaginary parts alone
    specs = [NoiseSpec(), NoiseSpec(kind="break_vertices", p=0.5)]
    specs += [NoiseSpec(kind="break_polygons", p=0.5, split_policy=split) for split in SPLIT_POLICIES]
    for seed, layout in enumerate(LAYOUTS[:-1]):
        rng = np.random.default_rng([seed, len(realness), realness[0], real_state])
        num = int(rng.integers(2, 13))
        tessellations = tuple(_tessellation(rng, layout, num, real) for real in realness)
        tg = _cover_of(num, tessellations)
        for spec in specs:
            _check_routes(tg, spec, rng, real_state)
