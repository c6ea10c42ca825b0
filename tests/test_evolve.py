import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_cover, random_state, reflect
from sqwsim.evolve import (
    InvariantError,
    WalkState,
    _flatten,
    _norm,
    _polygon_sums,
    localized_clique_state,
    renormalize_if_drifting,
    step,
    uniform_state,
)
from sqwsim.graph import (
    GridSpec,
    Polygon,
    SimpleGraph,
    Tessellation,
    TessellatedGraph,
    coined_to_staggered,
    make_grid_of_cliques,
)
from sqwsim.noise import SPLIT_POLICIES, NoiseSpec, _trajectory, plan_step, sample_plan
from sqwsim.search import partial_cover


class TestWalkState:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            WalkState(np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WalkState(np.array([], dtype=complex))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="norm"):
            WalkState(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_copies_its_input(self, dtype):
        amps = np.full(4, 0.5, dtype=dtype)
        state = WalkState(amps)
        assert amps.flags.writeable
        amps[0] = 1.0
        assert np.array_equal(state.amplitudes, np.full(4, 0.5))

    def test_one_buffer_until_amplitudes_are_read(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        for state in (uniform_state(16), step(tg, uniform_state(16))):
            assert state._amps.dtype == np.float64 and "amplitudes" not in vars(state)
            assert state.amplitudes.dtype == np.complex128 and not state.amplitudes.flags.writeable
            assert state.amplitudes is state.amplitudes
        state = WalkState(np.full(4, 0.5j))
        assert state.amplitudes is state._amps

    def test_uniform_state(self):
        s = uniform_state(4)
        assert np.allclose(s.amplitudes, 0.5)

    def test_localized_clique_state(self):
        s = localized_clique_state(GridSpec(2, 1), 0, 0)
        assert np.allclose(s.amplitudes[:4], 0.5)
        assert np.all(s.amplitudes[4:] == 0)
        s = localized_clique_state(GridSpec(3, 2), 1, 2)
        lo, hi = 40, 48
        assert np.allclose(s.amplitudes[lo:hi], 1.0 / (2.0 * math.sqrt(2)))
        assert np.all(np.delete(s.amplitudes, np.arange(lo, hi)) == 0)


class TestApplyTessellation:
    def test_cell_reflection_of_basis_state(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        amps = np.zeros(16, dtype=complex)
        amps[0] = 1.0
        out = reflect(tg.tessellations[0], WalkState(amps))
        assert np.allclose(out.amplitudes[:4], [-0.5, 0.5, 0.5, 0.5])
        assert np.all(out.amplitudes[4:] == 0)

    def test_polygon_state_is_fixed(self):
        poly = Polygon(np.array([1, 3]), np.array([0.8, 0.6j]))
        tess = Tessellation((poly,))
        amps = np.zeros(5, dtype=complex)
        amps[[1, 3]] = [0.8, 0.6j]
        out = reflect(tess, WalkState(amps))
        assert np.allclose(out.amplitudes, amps)

    def test_orthogonal_state_is_negated(self):
        poly = Polygon(np.array([0, 1]), np.array([1.0, 1.0]) / math.sqrt(2))
        tess = Tessellation((poly,))
        amps = np.array([1.0, -1.0, 1.0j]) / math.sqrt(3)
        out = reflect(tess, WalkState(amps))
        assert np.allclose(out.amplitudes, -amps)

    def test_uncovered_vertex_gets_minus_one(self):
        tess = Tessellation((Polygon.uniform([0, 1]),))
        amps = np.zeros(3, dtype=complex)
        amps[2] = 1.0
        out = reflect(tess, WalkState(amps))
        assert out.amplitudes[2] == -1.0

    def test_index_out_of_range(self):
        tess = Tessellation((Polygon.uniform([0, 5]),))
        with pytest.raises(ValueError, match="references vertex"):
            reflect(tess, uniform_state(3))

    def test_involution_on_random_covers(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            num = int(rng.integers(2, 24))
            tg = random_cover(rng, num, 1)
            state = WalkState(random_state(rng, num))
            tess = tg.tessellations[0]
            twice = reflect(tess, reflect(tess, state))
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-13)


class TestCompiledLayout:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_grid_tessellations_are_blocks_cells_in_place(self, q):
        spec = GridSpec(3, q)
        (_, (cells,)), (_, (links,)) = (_flatten(t) for t in make_grid_of_cliques(spec).tessellations)
        assert cells.amps.shape == (4 * q, 9) and cells.index is None
        assert links.amps.shape == (2 * q, 18) and links.index is not None

    def test_partial_cover_keeps_a_gathered_block(self):
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 1)), (1, 1))
        covered, (block,) = _flatten(tg.tessellations[0])
        assert covered == 32 and block.amps.shape == (4, 8) and block.index is not None

    def test_coin_tessellation_of_a_regular_graph_is_an_in_place_block(self):
        cycle = SimpleGraph(5, frozenset((v, (v + 1) % 5) for v in range(5)))
        (_, (coin,)), (_, (shift,)) = (_flatten(t) for t in coined_to_staggered(cycle)[0].tessellations)
        assert coin.amps.shape == (2, 5) and coin.index is None
        assert shift.amps.shape == (2, 5)

    @pytest.mark.parametrize("order", ["permuted", "in_order"])
    def test_mixed_sizes_make_one_block_per_size(self, order):
        # polygons of sizes 3, 1, 2, 3, 1, 2: one gathered block per size, in
        # ascending size, even over vertices 0..E-1 in polygon order
        verts = np.arange(12) if order == "in_order" else np.random.default_rng(4).permutation(12)
        bounds = [0, 3, 4, 6, 9, 10, 12]
        tess = Tessellation(tuple(Polygon.uniform(verts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])))
        covered, blocks = _flatten(tess)
        assert covered == 12
        assert [block.amps.shape for block in blocks] == [(1, 2), (2, 2), (3, 2)]
        assert sorted(np.concatenate([block.polygons for block in blocks]).tolist()) == list(range(6))
        for block in blocks:
            assert block.index is not None
            for column, j in enumerate(block.polygons):
                assert block.index[:, column].tolist() == verts[bounds[j] : bounds[j + 1]].tolist()

    def test_scratch_reuse_leaves_returned_states_alone(self):
        # every reflection reuses its tessellation's scratch arrays, so no
        # state handed out may share memory with them, on either route
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (0, 1))
        rng = np.random.default_rng(8)
        states = []
        for start in (WalkState(random_state(rng, tg.num_vertices)), uniform_state(tg.num_vertices)):
            states.append(start)
            for _ in range(3):
                states.append(step(tg, states[-1]))
        kept = [s.amplitudes.copy() for s in states]
        for _ in range(3):
            step(tg, WalkState(random_state(rng, tg.num_vertices)))
            step(tg, step(tg, uniform_state(tg.num_vertices)))
        for state, copy in zip(states, kept):
            assert state.amplitudes.tobytes() == copy.tobytes()
        arrays = [s.amplitudes for s in states] + [s._amps for s in states if s._amps.dtype == np.float64]
        assert len(arrays) == len(states) + 4
        for tess in tg.tessellations:
            for block in _flatten(tess)[1]:
                scratch = [block.terms] + ([] if block.gathered is None else [block.gathered])
                assert not any(np.shares_memory(a, b) for a in scratch for b in arrays)

    def test_real_tessellation_has_one_float64_layout(self):
        # complex and real states walk the same compiled layout
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (0, 1))
        layouts = [_flatten(tess) for tess in tg.tessellations]
        assert all(b.amps.dtype == b.terms.dtype == np.float64 for _, blocks in layouts for b in blocks)
        rng = np.random.default_rng(9)
        step(tg, WalkState(random_state(rng, tg.num_vertices)))
        step(tg, uniform_state(tg.num_vertices))
        assert all(_flatten(tess) is layout for tess, layout in zip(tg.tessellations, layouts))

    def test_complex_tessellation_has_a_complex_layout(self):
        tess = Tessellation((Polygon(np.array([0, 1]), np.array([0.6, 0.8j])), Polygon.uniform([2])))
        assert all(b.amps.dtype == b.terms.dtype == np.complex128 for b in _flatten(tess)[1])

    def test_threads_stepping_one_cover_match_their_serial_walks(self):
        # each thread compiles its own layout, so no thread writes into the
        # scratch arrays of a reflection running in another
        tg = make_grid_of_cliques(GridSpec(100, 1))
        rng = np.random.default_rng(10)
        starts = [WalkState(v / np.linalg.norm(v)) for v in rng.normal(size=(4, tg.num_vertices))]

        def walk(state):
            for _ in range(30):
                state = step(tg, state)
            return state._amps

        serial = [walk(state) for state in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(walk, state) for state in starts]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(serial, threaded):
            assert together.tobytes() == alone.tobytes()


def _dense_split_step(plan, state: WalkState) -> np.ndarray:
    """One step under a polygon-noise plan, each block reflected with a dense
    per-entry mask of the split entries: the formula that the patch of the
    broken columns onto the clean pass must reproduce bit for bit."""
    vec = state._amps
    layouts = [_flatten(tess) for tess in plan.cover.tessellations]
    if any(block.amps.dtype == np.complex128 for _, blocks in layouts for block in blocks):
        vec = vec.astype(np.complex128)
    for t_idx, (tess, (_, blocks)) in enumerate(zip(plan.cover.tessellations, layouts)):
        breaks, split, out = plan.polygon_breaks.get(t_idx), np.zeros(vec.size, dtype=bool), -vec
        if breaks is not None:
            whole = [np.arange(tess.starts[c], tess.starts[c + 1]) for c in breaks.broken]
            lone = None if breaks.lone_slot is None else tess.starts[breaks.broken] + breaks.lone_slot
            split[tess.vertices[np.concatenate(whole) if lone is None else lone]] = True
        for block in blocks:
            drop = np.ascontiguousarray(block.gather(split))
            parts = [(vec, out)] if vec.dtype == block.amps.dtype else [(vec.real, out.real), (vec.imag, out.imag)]
            for v, o in parts:
                sv = block.gather(v)
                terms = np.multiply(block.conj_amps, sv, out=np.empty_like(block.terms))
                if breaks is None:
                    factor = 2.0 * _polygon_sums(terms)
                else:
                    weight = _polygon_sums(np.where(drop, 0.0, block.amps2))
                    np.copyto(terms, 0.0, where=drop)
                    scale = np.zeros_like(weight)
                    np.divide(2.0, weight, out=scale, where=weight > 0.0)
                    factor = _polygon_sums(terms) * scale
                res = factor * block.amps - sv
                np.copyto(res, sv, where=drop)
                if block.index is None:
                    block.gather(o)[...] = res
                else:
                    o[block.index] = res
        vec = out
    return vec


def _real_ragged_cover(rng: np.random.Generator, num: int) -> TessellatedGraph:
    """Two tessellations of random real polygons of sizes 1..12 over all
    ``num`` vertices, so each compiles to several blocks of listed polygons."""
    tessellations = []
    for _ in range(2):
        perm, polys, pos = rng.permutation(num), [], 0
        while pos < num:
            verts = perm[pos : pos + int(rng.integers(1, 13))]
            amps = rng.uniform(0.3, 1.0, verts.size) * rng.choice([-1.0, 1.0], verts.size)
            polys.append(Polygon(verts, amps / np.sqrt(np.sum(amps * amps))))
            pos += verts.size
        tessellations.append(Tessellation(tuple(polys)))
    return TessellatedGraph(SimpleGraph(num), tuple(tessellations))


def _split_covers() -> dict[str, TessellatedGraph]:
    covers = {}
    for q in (1, 3):
        tg = make_grid_of_cliques(GridSpec(6, q))
        covers[f"grid_q{q}"] = tg
        covers[f"partial_q{q}"] = partial_cover(tg, (2, 3))
    # degrees 1 to 5: a coin tessellation of five polygon sizes, one of them 1
    ring = [(v, (v + 1) % 12) for v in range(12)]
    irregular = SimpleGraph(13, frozenset(ring + [(0, 3), (0, 6), (0, 8), (2, 9), (4, 10), (5, 12)]))
    covers["coined"] = coined_to_staggered(irregular)[0]
    covers["ragged_real"] = _real_ragged_cover(np.random.default_rng(21), 90)
    covers["ragged_complex"] = random_cover(np.random.default_rng(22), 90, 2, max_polygon=12)
    return covers


SPLIT_COVERS = _split_covers()


class TestSplitPatch:
    """A polygon break patches its columns onto the clean pass; the result
    must equal the dense split mask's bit for bit, on every layout, for real
    and complex states, under both split policies."""

    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    @pytest.mark.parametrize("cover", sorted(SPLIT_COVERS))
    def test_patched_split_equals_dense_mask_bit_for_bit(self, cover, policy, p):
        tg = SPLIT_COVERS[cover]
        spec = NoiseSpec(kind="break_polygons", p=p, split_policy=policy)
        rng = np.random.default_rng(23)
        real = rng.normal(size=tg.num_vertices)
        broken = 0
        for state in (WalkState(real / np.linalg.norm(real)), WalkState(random_state(rng, tg.num_vertices))):
            for _ in range(12):
                plan = sample_plan(tg, spec, rng)
                broken += sum(b.broken.size for b in plan.polygon_breaks.values())
                expected = _dense_split_step(plan, state)
                state = plan_step(plan, state)
                assert np.array_equal(state._amps, expected)
        assert broken > 0


class TestStep:
    def test_uniform_is_fixed_on_grid(self):
        for spec in (GridSpec(2, 1), GridSpec(5, 1), GridSpec(3, 2)):
            tg = make_grid_of_cliques(spec)
            s = uniform_state(spec.num_vertices)
            out = step(tg, s)
            np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-14)

    def test_norm_preserved_on_random_covers(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            num = int(rng.integers(2, 32))
            tg = random_cover(rng, num, int(rng.integers(1, 4)))
            out = step(tg, WalkState(random_state(rng, num)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-13

    def test_singleton_only_cover_is_identity_for_even_count(self):
        g = SimpleGraph(3, frozenset())
        singles = Tessellation(tuple(Polygon.uniform([v]) for v in range(3)))
        tg = TessellatedGraph(g, (singles, singles))
        state = WalkState(random_state(np.random.default_rng(3), 3))
        out = step(tg, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_empty_tessellation_negates(self):
        g = SimpleGraph(2, frozenset())
        tg = TessellatedGraph(g, (Tessellation(()),))
        state = WalkState(np.array([0.6, 0.8j]))
        out = step(tg, state)
        np.testing.assert_allclose(out.amplitudes, -state.amplitudes)

    def test_size_mismatch_rejected(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        with pytest.raises(ValueError, match="entries"):
            step(tg, uniform_state(8))

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec(kind="break_vertices", p=0.3)]
        + [NoiseSpec(kind="break_polygons", p=0.3, split_policy=split) for split in SPLIT_POLICIES],
        ids=["none", "vertices", *SPLIT_POLICIES],
    )
    @pytest.mark.parametrize("spec", [GridSpec(3, 1), GridSpec(3, 3)])
    def test_complex_state_on_a_real_cover_walks_its_parts_alone(self, monkeypatch, spec, noise):
        # a real reflection is real-linear, so the step of a + ib is the step
        # of a plus i times the step of b, to the bit; the parts are not unit
        # vectors, so the norm check is lifted for them
        monkeypatch.setattr("sqwsim.evolve.STATE_NORM_TOL", np.inf)
        tg = partial_cover(make_grid_of_cliques(spec), (1, 2))
        rng = np.random.default_rng(11)
        plan = None if noise.is_off else sample_plan(tg, noise, rng)
        walk = (lambda s: step(tg, s)) if plan is None else (lambda s: plan_step(plan, s))
        psi = random_state(rng, tg.num_vertices)
        out = walk(WalkState(psi)).amplitudes
        assert out.real.tobytes() == walk(WalkState(psi.real))._amps.tobytes()
        assert out.imag.tobytes() == walk(WalkState(psi.imag))._amps.tobytes()

    def test_does_not_mutate_input(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        state = WalkState(random_state(np.random.default_rng(5), 16))
        before = state.amplitudes.copy()
        step(tg, state)
        np.testing.assert_array_equal(state.amplitudes, before)


class TestRenormGuard:
    def test_pass_through(self):
        s = uniform_state(4)
        assert renormalize_if_drifting(s) is s

    def test_nan_state_is_an_invariant_error(self):
        state = uniform_state(4)
        object.__setattr__(state, "_amps", np.array([np.nan, 0.5, 0.5, 0.5]))
        with pytest.raises(InvariantError):
            renormalize_if_drifting(state)

    def test_small_drift_renormalized(self):
        amps = np.full(4, 0.5 * (1.0 + 3e-11), dtype=complex)
        out = renormalize_if_drifting(WalkState(amps))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-15

    def test_real_and_imaginary_states_renormalize_to_equal_bits(self):
        # at this vector the sum of squares of the float64 entries alone, and
        # dividing by the norm, both give other bits than the complex route
        psi = np.random.default_rng(124).normal(size=1000)
        psi *= (1.0 + 9e-11) / math.sqrt(np.sum(psi * psi))
        real = renormalize_if_drifting(WalkState(psi))
        imag = renormalize_if_drifting(WalkState(1j * psi))
        assert real._amps.dtype == np.float64
        assert np.array_equal(imag.amplitudes.imag, real.amplitudes.real)

    def test_long_noiseless_walk_stays_near_unit_norm(self):
        # Round-off grows |norm - 1| by ~1.8e-16 per step.  It passes 1e-12
        # near t=5,100 and the trajectory's guard renormalizes at t=6,000, so
        # 12,000 steps peak at 1.18e-12; without the guard they end at 2.36e-12.
        spec = GridSpec(3, 1)
        start = localized_clique_state(spec, 0, 0)
        drift, _ = _trajectory(
            make_grid_of_cliques(spec), start, 12_000, NoiseSpec(), None,
            lambda state: abs(_norm(state.amplitudes) - 1.0),
        )
        assert drift.max() < 1.5e-12
