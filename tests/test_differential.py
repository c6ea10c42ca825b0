"""Differential property tests of the masked step.

For random covers of every layout the compiled kernel distinguishes (equal
polygon sizes in random or vertex order, partial covers, polygons of
different sizes, empty tessellations) and random noise plans, three routes
must agree: the masked fast step ``plan_step``, the step on the materialized
perturbed cover ``step(apply_plan(...))`` and the dense oracle.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwsim.evolve import WalkState, step
from sqwsim.graph import Polygon, SimpleGraph, Tessellation, TessellatedGraph
from sqwsim.noise import SPLIT_POLICIES, NoiseSpec, plan_step, sample_plan
from sqwsim.oracle import apply_plan, dense_step_matrix

#: Equal-size polygons over a random permutation of all vertices, over the
#: vertices in order, over a random subset, over a leading run 0..E-1;
#: a singleton and polygons of sizes 2..4 over a random subset; no polygons.
LAYOUTS = ("equal", "in_order", "partial", "partial_in_order", "ragged", "empty")


def _amplitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    amps = rng.uniform(0.3, 1.0, size) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


def _tessellation(rng: np.random.Generator, layout: str, num: int) -> Tessellation:
    if layout == "empty":
        return Tessellation(())
    if layout == "ragged":
        covered = rng.permutation(num)[: int(rng.integers(1, num + 1))]
        sizes = [1]  # a singleton first, then larger polygons, so sizes differ
        while sum(sizes) < covered.size:
            sizes.append(min(int(rng.integers(2, 5)), covered.size - sum(sizes)))
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
    polys = tuple(Polygon(covered[a:b], _amplitudes(rng, b - a)) for a, b in zip(bounds[:-1], bounds[1:]))
    return Tessellation(polys)


@st.composite
def covers(draw) -> TessellatedGraph:
    num = draw(st.integers(1, 12))
    layouts = draw(st.lists(st.sampled_from(LAYOUTS), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tessellations = tuple(_tessellation(rng, layout, num) for layout in layouts)
    edges = {
        (int(min(a, b)), int(max(a, b)))
        for tess in tessellations
        for poly in tess.polygons
        for i, a in enumerate(poly.vertices)
        for b in poly.vertices[i + 1 :]
    }
    return TessellatedGraph(SimpleGraph(num, frozenset(edges)), tessellations)


@st.composite
def noise_specs(draw, num_tessellations: int) -> NoiseSpec:
    p = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    if draw(st.booleans()):
        return NoiseSpec(kind="break_vertices", p=p)
    scope = draw(st.none() | st.sets(st.integers(0, num_tessellations - 1), min_size=1).map(tuple))
    return NoiseSpec(kind="break_polygons", p=p, split_policy=draw(st.sampled_from(SPLIT_POLICIES)), scope=scope)


@settings(max_examples=500)
@given(data=st.data())
def test_plan_step_matches_materialized_cover_and_dense_oracle(data):
    tg = data.draw(covers())
    spec = data.draw(noise_specs(tg.num_tessellations))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.normal(size=tg.num_vertices) + 1j * rng.normal(size=tg.num_vertices)
    state = WalkState(vec / np.sqrt(np.sum(np.abs(vec) ** 2)))

    plan = sample_plan(tg, spec, rng)
    fast = plan_step(plan, state).amplitudes
    perturbed = apply_plan(tg, plan)
    slow = step(perturbed, state).amplitudes
    dense = dense_step_matrix(perturbed).entries @ state.amplitudes
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12)

