import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_cover, random_state, reflect
from sqwsim.evolve import (
    InvariantError,
    WalkState,
    _Block,
    _compiled,
    _flatten,
    _inverse_weights,
    _kept_scale,
    _layouts,
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
from sqwsim.noise import SPLIT_POLICIES, BreakPlan, NoiseSpec, _trajectory, plan_step, sample_plan
from sqwsim.oracle import _dense_reflection, tessellation_of
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
    def test_norm_check_of_a_written_buffer_fires(self, dtype):
        rng = np.random.default_rng(13)
        base = rng.normal(size=1000) + (1j * rng.normal(size=1000) if dtype == np.complex128 else 0.0)
        base /= _norm(base)
        for drift in (5e-11, -5e-11):
            amps = base * (1.0 + drift)
            assert abs(_norm(amps) - 1.0) == pytest.approx(5e-11, rel=1e-4)
            assert WalkState._written(amps)._amps is amps
        for drift in (2e-10, -2e-10):
            with pytest.raises(InvariantError, match="norm"):
                WalkState._written(base * (1.0 + drift))
        amps = base.copy()
        amps[3] = np.nan
        with pytest.raises(InvariantError, match="norm"):
            WalkState._written(amps)

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
        tess = tessellation_of((poly,))
        amps = np.zeros(5, dtype=complex)
        amps[[1, 3]] = [0.8, 0.6j]
        out = reflect(tess, WalkState(amps))
        assert np.allclose(out.amplitudes, amps)

    def test_orthogonal_state_is_negated(self):
        poly = Polygon(np.array([0, 1]), np.array([1.0, 1.0]) / math.sqrt(2))
        tess = tessellation_of((poly,))
        amps = np.array([1.0, -1.0, 1.0j]) / math.sqrt(3)
        out = reflect(tess, WalkState(amps))
        assert np.allclose(out.amplitudes, -amps)

    def test_uncovered_vertex_gets_minus_one(self):
        tess = tessellation_of((Polygon.uniform([0, 1]),))
        amps = np.zeros(3, dtype=complex)
        amps[2] = 1.0
        out = reflect(tess, WalkState(amps))
        assert out.amplitudes[2] == -1.0

    def test_index_out_of_range(self):
        tess = tessellation_of((Polygon.uniform([0, 5]),))
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


def _mixed_sizes(order: str) -> tuple[Tessellation, np.ndarray, list[int]]:
    """Polygons of sizes 3, 1, 2, 3, 1, 2 over vertices 0..11, in polygon
    order or permuted."""
    verts = np.arange(12) if order == "in_order" else np.random.default_rng(4).permutation(12)
    bounds = [0, 3, 4, 6, 9, 10, 12]
    return tessellation_of(tuple(Polygon.uniform(verts[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))), verts, bounds


def _gathered_case(case: str) -> tuple[Tessellation, int, list[int]]:
    """A tessellation that compiles to a permutation, the number of vertices
    of the cover it is laid out over, and the vertices it leaves uncovered."""
    if case == "grid_links":
        return make_grid_of_cliques(GridSpec(3, 2)).tessellations[1], 72, []
    if case == "partial_cells":
        # the marked cell (1, 1) holds vertices 16..19
        return partial_cover(make_grid_of_cliques(GridSpec(3, 1)), (1, 1)).tessellations[0], 36, [16, 17, 18, 19]
    if case == "skipping":
        # uncovered: 1 and 4 below the largest vertex, and 7 and 8 above it
        polygons = (Polygon.uniform([6, 2]), Polygon.uniform([0]), Polygon.uniform([5, 3]))
        return tessellation_of(polygons), 9, [1, 4, 7, 8]
    return _mixed_sizes(case.removeprefix("mixed_"))[0], 12, []


def _block_vertices(layout, block) -> np.ndarray:
    """The vertex of each entry of a compiled block, (m, P): a block read in
    place holds vertices 0..E-1 in polygon order, and a gathered one the
    stretch of its layout's permutation from ``offset`` on."""
    if block.gathered is None:
        return np.arange(block.amps.size).reshape(block.amps.shape[::-1]).T.copy()
    return layout.perm[block.offset : block.offset + block.amps.size].reshape(block.amps.shape)


def _layouts_of(tg: TessellatedGraph) -> tuple:
    """The layouts that a step of ``tg`` walks in this thread."""
    return _compiled(tg)[0]


class TestCompiledLayout:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_grid_tessellations_are_blocks_cells_in_place(self, q):
        (cells,), (links,) = (layout.blocks for layout in _layouts_of(make_grid_of_cliques(GridSpec(3, q))))
        assert cells.amps.shape == (4 * q, 9) and cells.gathered is None
        assert links.amps.shape == (2 * q, 18) and links.gathered is not None

    def test_partial_cover_keeps_a_gathered_block(self):
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 1)), (1, 1))
        layout = _layouts_of(tg)[0]
        (block,) = layout.blocks
        assert (layout.perm.size, layout.covered) == (36, 32)
        assert block.amps.shape == (4, 8) and block.gathered is not None

    def test_coin_tessellation_of_a_regular_graph_is_an_in_place_block(self):
        cycle = SimpleGraph(5, frozenset((v, (v + 1) % 5) for v in range(5)))
        (coin,), (shift,) = (layout.blocks for layout in _layouts_of(coined_to_staggered(cycle)[0]))
        assert coin.amps.shape == (2, 5) and coin.gathered is None
        assert shift.amps.shape == (2, 5)

    @pytest.mark.parametrize("order", ["permuted", "in_order"])
    def test_mixed_sizes_make_one_block_per_size(self, order):
        # polygons of sizes 3, 1, 2, 3, 1, 2: one gathered block per size, in
        # ascending size, even over vertices 0..E-1 in polygon order
        tess, verts, bounds = _mixed_sizes(order)
        layout = _flatten(tess, 12)
        assert layout.perm.size == layout.covered == 12
        assert [block.amps.shape for block in layout.blocks] == [(1, 2), (2, 2), (3, 2)]
        assert sorted(np.concatenate([block.polygons for block in layout.blocks]).tolist()) == list(range(6))
        for block in layout.blocks:
            assert block.gathered is not None
            vertices = _block_vertices(layout, block)
            for column, j in enumerate(block.polygons):
                assert vertices[:, column].tolist() == verts[bounds[j] : bounds[j + 1]].tolist()

    @pytest.mark.parametrize("case", ["grid_links", "partial_cells", "mixed_permuted", "mixed_in_order", "skipping"])
    def test_permutation_and_its_inverse_undo_each_other(self, case):
        # a gathered tessellation reads all the vertices of its cover in one
        # permutation: its blocks' entries, block by block, and then every
        # vertex it leaves uncovered, above its largest too
        tess, num_vertices, uncovered = _gathered_case(case)
        layout = _flatten(tess, num_vertices)
        everything = np.arange(num_vertices)
        assert np.array_equal(layout.perm[layout.inverse], everything)
        assert np.array_equal(layout.inverse[layout.perm], everything)
        assert layout.perm[layout.covered :].tolist() == uncovered
        assert layout.covered == tess.vertices.size == num_vertices - len(uncovered)
        assert layout.gathered.size == layout.terms.size == num_vertices
        offset = 0
        for block in layout.blocks:
            assert block.offset == offset
            assert np.shares_memory(block.gathered, layout.gathered) and np.shares_memory(block.terms, layout.terms)
            offset += block.amps.size
        assert offset == layout.covered

    def test_tessellation_skipping_a_vertex_reflects_as_the_dense_matrix(self):
        # vertices 1 and 4 below the largest, and 7 and 8 above it, are uncovered
        tess, num_vertices, _ = _gathered_case("skipping")
        state = WalkState(random_state(np.random.default_rng(12), num_vertices))
        expected = _dense_reflection(tess, num_vertices) @ state.amplitudes
        np.testing.assert_allclose(reflect(tess, state).amplitudes, expected, atol=1e-15)

    def test_in_place_tessellation_stopping_below_the_cover_reflects_as_the_dense_matrix(self):
        # the last cell's vertices 32..35 follow the in-place block and pick up -I
        tess = partial_cover(make_grid_of_cliques(GridSpec(3, 1)), (2, 2)).tessellations[0]
        layout = _flatten(tess, 36)
        assert (layout.covered, layout.terms.size, layout.perm) == (32, 32, None)
        for state in (WalkState(random_state(np.random.default_rng(13), 36)), uniform_state(36)):
            expected = _dense_reflection(tess, 36) @ state.amplitudes
            np.testing.assert_allclose(reflect(tess, state).amplitudes, expected, atol=1e-15)

    def test_empty_tessellation_is_a_layout_of_no_block(self):
        # it covers nothing, so every vertex picks up -I, broken or not
        layout = _flatten(tessellation_of(()), 5)
        assert (layout.covered, layout.blocks, layout.perm, layout.terms.size) == (0, (), None, 0)
        tg = TessellatedGraph(SimpleGraph(5), (tessellation_of(()),))
        rng = np.random.default_rng(14)
        real = rng.normal(size=5)
        for state in (WalkState(real / np.linalg.norm(real)), WalkState(random_state(rng, 5))):
            for plan in (None, BreakPlan(tg, broken_vertices=np.arange(0, 5, 2))):
                assert step(tg, state, plan)._amps.tobytes() == (-state._amps).tobytes()

    def test_step_looks_up_a_cover_once_per_thread(self):
        # the one table holds a cover's layouts, one entry per cover and
        # thread; it must not keep the cover alive
        assert list(vars(_layouts)) == ["by_cover"]
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (0, 1))
        step(tg, uniform_state(tg.num_vertices))
        layouts, promote = _layouts.by_cover[tg]
        assert not promote and _compiled(tg) is _layouts.by_cover[tg]
        assert len(layouts) == tg.num_tessellations
        with ThreadPoolExecutor(max_workers=1) as pool:
            theirs, _ = pool.submit(_compiled, tg).result(timeout=60)
        assert all(a is not b for a, b in zip(layouts, theirs, strict=True))
        complex_tg = TessellatedGraph(SimpleGraph(3), (tessellation_of(
            (Polygon(np.array([0, 1]), np.array([0.6, 0.8j])), Polygon.uniform([2]))),))
        assert _compiled(complex_tg)[1]
        cover = weakref.ref(tg)
        del tg, layouts, theirs
        gc.collect()
        assert cover() is None

    def test_covers_sharing_a_tessellation_compile_their_own_layouts(self):
        # the grid and its partial cover share the link tessellation; each
        # cover lays it out, and the partial cover walks the same bytes
        # whether or not the grid stepped first in the thread
        grid = make_grid_of_cliques(GridSpec(4, 2))
        partial = partial_cover(grid, (3, 3))
        assert partial.tessellations[1] is grid.tessellations[1]
        start = WalkState(random_state(np.random.default_rng(15), grid.num_vertices))
        noise = NoiseSpec(kind="break_vertices", p=0.2)

        def walk(grid_first: bool) -> bytes:
            if grid_first:
                step(grid, step(grid, start), sample_plan(grid, noise, np.random.default_rng(16)))
            rng, state = np.random.default_rng(17), start
            for _ in range(4):
                state = step(partial, state, sample_plan(partial, noise, rng))
            assert _layouts_of(partial)[1] is not _compiled(grid)[0][1]
            return state._amps.tobytes()

        walks = []
        for grid_first in (False, True, False):
            # each pool's one thread starts with an empty table
            with ThreadPoolExecutor(max_workers=1) as pool:
                walks.append(pool.submit(walk, grid_first).result(timeout=60))
        assert walks[0] == walks[1] == walks[2]

    def test_compiling_the_grid_cells_copies_no_more_than_it_keeps(self):
        # the in-place cell block keeps only its products' scratch and its
        # kept-count table: compiling builds no entry index and no copy of
        # the amplitudes
        tess = make_grid_of_cliques(GridSpec(100, 1)).tessellations[0]
        tess._uniform_size
        tracemalloc.start()
        try:
            layout = _flatten(tess, 40_000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert layout.perm is None and kept >= layout.terms.nbytes
        assert peak <= 1.25 * kept

    def test_real_blocks_share_their_amplitudes_as_conjugates(self):
        for layout in _layouts_of(partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (0, 1))):
            assert all(b.conj_amps is b.amps for b in layout.blocks)
        tess = tessellation_of((Polygon(np.array([0, 1]), np.array([0.6, 0.8j])), Polygon.uniform([2])))
        for b in _flatten(tess, 3).blocks:
            assert b.conj_amps is not b.amps and np.array_equal(b.conj_amps, np.conj(b.amps))

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
        layouts = _layouts_of(tg)
        assert all(layout.gathered is not None for layout in layouts)
        for layout in layouts:
            scratch = [layout.terms, layout.gathered]
            for block in layout.blocks:
                scratch += [block.terms, block.gathered]
            assert not any(np.shares_memory(a, b) for a in scratch for b in arrays)

    def test_real_tessellation_has_one_float64_layout(self):
        # complex and real states walk the same compiled layout
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (0, 1))
        layouts = _layouts_of(tg)
        assert all(b.amps.dtype == b.terms.dtype == np.float64 for layout in layouts for b in layout.blocks)
        rng = np.random.default_rng(9)
        step(tg, WalkState(random_state(rng, tg.num_vertices)))
        step(tg, uniform_state(tg.num_vertices))
        assert all(a is b for a, b in zip(_layouts_of(tg), layouts, strict=True))

    def test_complex_tessellation_has_a_complex_layout(self):
        tess = tessellation_of((Polygon(np.array([0, 1]), np.array([0.6, 0.8j])), Polygon.uniform([2])))
        assert all(b.amps.dtype == b.terms.dtype == np.complex128 for b in _flatten(tess, 3).blocks)

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
    """One step under a plan, each block reflected with a dense per-entry
    mask of the detached entries: the formula that the patch of the hit
    columns onto the clean pass must reproduce bit for bit.  A split-off
    entry gets +sv, a broken vertex -sv, each written by its ufunc, which
    keeps the sign of a zero (a product with ±1.0 may not)."""
    vec = state._amps
    layouts = _layouts_of(plan.cover)
    if any(block.amps.dtype == np.complex128 for layout in layouts for block in layout.blocks):
        vec = vec.astype(np.complex128)
    vertex_mask = plan.broken_vertex_mask
    sign = np.positive if vertex_mask is None else np.negative
    for t_idx, (tess, layout) in enumerate(zip(plan.cover.tessellations, layouts)):
        breaks, split, out = plan.polygon_breaks.get(t_idx), np.zeros(vec.size, dtype=bool), -vec
        if breaks is not None:
            whole = [np.arange(tess.starts[c], tess.starts[c + 1]) for c in breaks.broken]
            lone = None if breaks.lone_slot is None else tess.starts[breaks.broken] + breaks.lone_slot
            split[tess.vertices[np.concatenate(whole) if lone is None else lone]] = True
        elif vertex_mask is not None:
            split = vertex_mask
        for block in layout.blocks:
            vertices = _block_vertices(layout, block)
            drop = split[vertices]
            parts = [(vec, out)] if vec.dtype == block.amps.dtype else [(vec.real, out.real), (vec.imag, out.imag)]
            for v, o in parts:
                sv = v[vertices]
                terms = np.multiply(block.conj_amps, sv, out=np.empty_like(block.terms))
                if breaks is None and vertex_mask is None:
                    factor = 2.0 * _polygon_sums(terms)
                else:
                    weight = _polygon_sums(np.where(drop, 0.0, block.amps.real**2 + block.amps.imag**2))
                    np.copyto(terms, 0.0, where=drop)
                    scale = np.zeros_like(weight)
                    np.divide(2.0, weight, out=scale, where=weight > 0.0)
                    factor = _polygon_sums(terms) * scale
                res = factor * block.amps - sv
                np.copyto(res, sign(sv), where=drop)
                o[vertices] = res
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
        tessellations.append(tessellation_of(tuple(polys)))
    return TessellatedGraph(SimpleGraph(num), tuple(tessellations))


def _split_covers() -> dict[str, TessellatedGraph]:
    covers = {}
    for q in (1, 3):
        tg = make_grid_of_cliques(GridSpec(6, q))
        covers[f"grid_q{q}"] = tg
        covers[f"partial_q{q}"] = partial_cover(tg, (2, 3))
    # marked at the last cell: tessellation 0 is read in place over vertices
    # 0..279 of 288, and the -I tail after it is not empty
    covers["partial_last_q2"] = partial_cover(make_grid_of_cliques(GridSpec(6, 2)), (5, 5))
    # degrees 1 to 5: a coin tessellation of five polygon sizes, one of them 1
    ring = [(v, (v + 1) % 12) for v in range(12)]
    irregular = SimpleGraph(13, frozenset(ring + [(0, 3), (0, 6), (0, 8), (2, 9), (4, 10), (5, 12)]))
    covers["coined"] = coined_to_staggered(irregular)[0]
    covers["ragged_real"] = _real_ragged_cover(np.random.default_rng(21), 90)
    covers["ragged_complex"] = random_cover(np.random.default_rng(22), 90, 2, max_polygon=12)
    # three tessellations: a broken vertex picks up -1 from each, so an odd
    # count tells its sign in a whole step
    covers["ragged_complex3"] = random_cover(np.random.default_rng(22), 90, 3, max_polygon=12)
    return covers


SPLIT_COVERS = _split_covers()


class TestSplitPatch:
    """A polygon break or a broken vertex patches the hit columns onto the
    clean pass; the result must equal the dense mask's bit for bit, on every
    layout, for real and complex states, under both split policies and
    under vertex noise."""

    def test_ragged_covers_hold_a_one_polygon_block_of_at_least_nine_entries(self):
        # a one-column block sums its polygon pairwise from nine entries on,
        # which the weights of a polygon that broken vertices hit must match
        for cover in ("ragged_real", "ragged_complex", "ragged_complex3"):
            blocks = [b for layout in _layouts_of(SPLIT_COVERS[cover]) for b in layout.blocks]
            assert any(b.amps.shape[1] == 1 and b.amps.shape[0] >= 9 for b in blocks), cover

    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("kind", [*SPLIT_POLICIES, "vertices"])
    @pytest.mark.parametrize("cover", sorted(SPLIT_COVERS))
    def test_patched_split_equals_dense_mask_bit_for_bit(self, cover, kind, p):
        tg = SPLIT_COVERS[cover]
        if kind == "vertices":
            spec = NoiseSpec(kind="break_vertices", p=p)
        else:
            spec = NoiseSpec(kind="break_polygons", p=p, split_policy=kind)
        rng = np.random.default_rng(23)
        real = rng.normal(size=tg.num_vertices)
        # imaginary parts of -0.0, whose sign a split-off entry must keep;
        # drawn from a generator of their own, so the plans are unchanged
        signed = np.empty(tg.num_vertices, dtype=np.complex128)
        signed.real, signed.imag = np.random.default_rng(25).normal(size=(2, tg.num_vertices))
        signed.imag[::3] = -0.0
        signed.view(np.float64)[:] /= _norm(signed)
        starts = (real / np.linalg.norm(real), random_state(rng, tg.num_vertices), signed)
        broken = several = 0
        for state in map(WalkState, starts):
            for _ in range(12):
                plan = sample_plan(tg, spec, rng)
                broken += plan.broken_vertices.size + sum(b.broken.size for b in plan.polygon_breaks.values())
                several += _polygons_losing_several(plan)
                expected = _dense_split_step(plan, state)
                state = plan_step(plan, state)
                assert state._amps.tobytes() == expected.tobytes()
        assert broken > 0
        if kind == "vertices" and p == 0.1:
            assert several > 0


    def test_broken_vertex_is_negated_to_the_bit(self):
        # a real state walks a complex cover with imaginary parts +0, and
        # -(a + 0i) is -a - 0i, where a product with -1 gives -a + 0i for a > 0
        tg = TessellatedGraph(SimpleGraph(90), SPLIT_COVERS["ragged_complex"].tessellations[:1])
        real = np.random.default_rng(24).normal(size=90)
        state = WalkState(real / np.linalg.norm(real))
        broken = np.arange(0, 90, 7)
        out = plan_step(BreakPlan(tg, broken_vertices=broken), state)._amps
        assert out.dtype == np.complex128
        assert out[broken].tobytes() == (-state._amps[broken].astype(np.complex128)).tobytes()


class TestUniformBlock:
    """A block of two or more polygons whose entries hold one real amplitude
    compiles to its shape and that amplitude, and weighs the polygons that
    broken vertices hit from a table by how many entries each keeps; it must
    walk as the general block does, to the bit."""

    @staticmethod
    def _check_table(m: int, kept: np.ndarray) -> None:
        # the amplitude 1/sqrt(m) that the grid, read_cover and
        # coined_to_staggered give a polygon of size m; each column of
        # ``kept`` is one polygon's kept slots, and a block of two or more
        # columns sums each of them row by row
        amps = np.full(kept.shape, 1.0 / math.sqrt(m))
        amps2 = amps.real**2 + amps.imag**2
        amps2[~kept] = 0.0
        table = _kept_scale(amps[0, 0], m)
        assert table[kept.sum(axis=0)].tobytes() == _inverse_weights(amps2).tobytes()

    @pytest.mark.parametrize("m", range(1, 13))
    def test_kept_count_table_weighs_every_subset_of_lost_slots(self, m):
        columns = np.arange(2**m)
        self._check_table(m, (columns >> np.arange(m)[:, None]) & 1 == 1)

    @pytest.mark.parametrize("m", [16, 24, 40])
    def test_kept_count_table_weighs_sampled_subsets_of_lost_slots(self, m):
        rng = np.random.default_rng(m)
        self._check_table(m, rng.random((m, 4000)) < rng.random(4000))

    def test_one_polygon_block_keeps_its_amplitudes(self):
        # its one column sums pairwise from nine entries on, which a table of
        # sums one after another does not match
        (block,) = _flatten(tessellation_of((Polygon.uniform(range(9)),)), 9).blocks
        assert block.kept_scale is None and block.amps2.shape == (9, 1)

    def test_grid_blocks_own_no_per_entry_amplitudes(self):
        tg = make_grid_of_cliques(GridSpec(100, 1))
        state, rng = uniform_state(tg.num_vertices), np.random.default_rng(7)
        for noise in (NoiseSpec(kind="break_vertices", p=0.01),
                      NoiseSpec(kind="break_polygons", p=0.01, split_policy="one_vs_rest")):
            state = step(tg, state, sample_plan(tg, noise, rng))
        for tess, layout in zip(tg.tessellations, _layouts_of(tg), strict=True):
            assert "sizes" not in vars(tess)
            for block in layout.blocks:
                assert block.amps2 is None and block.conj_amps is block.amps and not any(block.amps.strides)
                # a one_vs_rest split weighs each hit polygon by one value,
                # that of a polygon keeping m - 1 of its m entries
                m, size = block.amps.shape
                columns = np.array([0, size - 1])
                _, hit, hit_scale, _ = block.weigh(columns, columns, (np.zeros(2, dtype=np.intp), columns))
                assert np.ndim(block.scale) == np.ndim(hit_scale) == 0
                assert hit is columns and hit_scale == block.kept_scale[m - 1]

    @pytest.mark.parametrize(
        "noise",
        [None, NoiseSpec(kind="break_vertices", p=0.01), NoiseSpec(kind="break_vertices", p=0.3)]
        + [NoiseSpec(kind="break_polygons", p=0.3, split_policy=split) for split in SPLIT_POLICIES],
        ids=["clean", "vertices_0.01", "vertices_0.3", *SPLIT_POLICIES],
    )
    @pytest.mark.parametrize("cover", ["grid_q1", "grid_q3", "partial_q1", "partial_q3", "coined"])
    def test_uniform_blocks_walk_as_general_blocks_to_the_bit(self, monkeypatch, cover, noise):
        uniform = SPLIT_COVERS[cover]
        blocks = [b for layout in _layouts_of(uniform) for b in layout.blocks]
        assert [b.kept_scale is not None for b in blocks] == [b.amps.shape[1] > 1 for b in blocks]
        assert any(b.kept_scale is not None for b in blocks)
        monkeypatch.setattr("sqwsim.evolve._one_amplitude", lambda amps: None)
        general = _split_covers()[cover]
        assert all(b.kept_scale is None for layout in _layouts_of(general) for b in layout.blocks)
        walks = []
        for tg in (uniform, general):
            rng = np.random.default_rng(41)
            real = rng.normal(size=tg.num_vertices)
            for state in (WalkState(real / np.linalg.norm(real)), WalkState(random_state(rng, tg.num_vertices))):
                for _ in range(8):
                    state = step(tg, state, None if noise is None else sample_plan(tg, noise, rng))
                walks.append(state._amps.tobytes())
        assert walks[:2] == walks[2:]


class TestOneWeighingRule:
    """A polygon that loses entries is weighed by one rule, whether a split
    or broken vertices hit it: from ``kept_scale`` in a uniform block, and
    anew in any other, so no block caches a table of per-entry factors."""

    @pytest.mark.parametrize("cover", ["ragged_real", "ragged_complex3", "coined"])
    def test_one_vs_rest_splits_cache_no_per_entry_factors(self, cover):
        tg = SPLIT_COVERS[cover]
        rng = np.random.default_rng(43)
        state = WalkState(random_state(rng, tg.num_vertices))
        noise = NoiseSpec(kind="break_polygons", p=0.5, split_policy="one_vs_rest")
        for _ in range(4):
            state = plan_step(sample_plan(tg, noise, rng), state)
        names = {f.name for f in dataclasses.fields(_Block)}
        blocks = [block for layout in _layouts_of(tg) for block in layout.blocks]
        assert any(block.kept_scale is None for block in blocks)
        for block in blocks:
            cached = {name: value for name, value in vars(block).items() if name not in names}
            # ``scale`` holds one factor per polygon, or one for the block
            assert set(cached) <= {"scale"}
            assert all(np.ndim(value) <= 1 for value in cached.values())


def _polygons_losing_several(plan) -> int:
    """How many polygons lose two or more, but not all, of their entries to
    the plan's broken vertices."""
    if plan.broken_vertex_mask is None:
        return 0
    count = 0
    for tess in plan.cover.tessellations:
        lost = np.add.reduceat(plan.broken_vertex_mask[tess.vertices], tess.starts[:-1])
        count += int(np.sum((lost >= 2) & (lost < tess.sizes)))
    return count


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
        singles = tessellation_of(tuple(Polygon.uniform([v]) for v in range(3)))
        tg = TessellatedGraph(g, (singles, singles))
        state = WalkState(random_state(np.random.default_rng(3), 3))
        out = step(tg, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_empty_tessellation_negates(self):
        g = SimpleGraph(2, frozenset())
        tg = TessellatedGraph(g, (tessellation_of(()),))
        state = WalkState(np.array([0.6, 0.8j]))
        out = step(tg, state)
        np.testing.assert_allclose(out.amplitudes, -state.amplitudes)

    def test_size_mismatch_rejected(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        with pytest.raises(ValueError, match="entries"):
            step(tg, uniform_state(8))

    def test_plan_from_another_cover_rejected(self):
        # covers compare by identity: a twin built from the same graph and
        # tessellations, or a fresh build of the same grid, is another cover
        tg = make_grid_of_cliques(GridSpec(3, 1))
        state = uniform_state(tg.num_vertices)
        plans = [BreakPlan(tg), sample_plan(tg, NoiseSpec(kind="break_vertices", p=0.3), np.random.default_rng(5))]
        for other in (TessellatedGraph(tg.graph, tg.tessellations), make_grid_of_cliques(GridSpec(3, 1))):
            for plan in plans:
                assert plan.cover is not other
                with pytest.raises(ValueError, match="different cover"):
                    step(other, state, plan)

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(kind="break_vertices", p=0.2)]
        + [NoiseSpec(kind="break_polygons", p=0.2, split_policy=split) for split in SPLIT_POLICIES],
        ids=["vertices", *SPLIT_POLICIES],
    )
    def test_step_under_a_plan_is_plan_step_to_the_bit(self, noise):
        tg = partial_cover(make_grid_of_cliques(GridSpec(4, 3)), (1, 2))
        rng = np.random.default_rng(31)
        state = WalkState(random_state(rng, tg.num_vertices))
        for _ in range(5):
            plan = sample_plan(tg, noise, rng)
            assert not plan.is_empty
            out = step(tg, state, plan)
            assert out._amps.tobytes() == plan_step(plan, state)._amps.tobytes()
            state = out

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
        psi = random_state(rng, tg.num_vertices)
        out = step(tg, WalkState(psi), plan).amplitudes
        assert out.real.tobytes() == step(tg, WalkState(psi.real), plan)._amps.tobytes()
        assert out.imag.tobytes() == step(tg, WalkState(psi.imag), plan)._amps.tobytes()

    def test_does_not_mutate_input(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        state = WalkState(random_state(np.random.default_rng(5), 16))
        before = state.amplitudes.copy()
        step(tg, state)
        np.testing.assert_array_equal(state.amplitudes, before)


def _reversed_plan(reversed_tg: TessellatedGraph, plan) -> BreakPlan:
    """``plan`` on the cover of the same tessellations in reverse order:
    tessellation t's polygon breaks belong to tessellation T - 1 - t."""
    last = reversed_tg.num_tessellations - 1
    return BreakPlan(reversed_tg, broken_vertices=plan.broken_vertices,
                     polygon_breaks={last - t: breaks for t, breaks in plan.polygon_breaks.items()})


class TestTimeReversal:
    """Every reflection, clean or perturbed, is its own inverse, so a step of
    the reversed cover under the same plan undoes a step: a check of the
    compiled layouts at workload size, where no dense oracle reaches."""

    @pytest.mark.parametrize(
        "noise",
        [None, NoiseSpec(kind="break_vertices", p=0.1)]
        + [NoiseSpec(kind="break_polygons", p=0.1, split_policy=split) for split in SPLIT_POLICIES],
        ids=["clean", "vertices", *SPLIT_POLICIES],
    )
    @pytest.mark.parametrize(
        "case",
        [((100, 1), None, (0, 0)), ((100, 3), None, (0, 0)),
         # tessellation 0 gathered; and read in place, with the marked cell
         # after it as its tail
         ((20, 2), (3, 4), (3, 3)), ((20, 2), (19, 19), (19, 18))],
        ids=["grid_100_1", "grid_100_3", "partial_20_2_at_3_4", "partial_20_2_at_19_19"],
    )
    def test_the_reversed_cover_walks_back_to_the_start(self, case, noise):
        (n, q), marked, at = case
        spec = GridSpec(n, q)
        tg = make_grid_of_cliques(spec)
        if marked is not None:
            tg = partial_cover(tg, marked)
        reversed_tg = TessellatedGraph(tg.graph, tg.tessellations[::-1])
        start = localized_clique_state(spec, *at)
        rng = np.random.default_rng(51)
        plans, state = [], start
        for _ in range(20):
            plans.append(None if noise is None else sample_plan(tg, noise, rng))
            state = step(tg, state, plans[-1])
        moved = np.linalg.norm(state._amps - start._amps)
        for plan in reversed(plans):
            state = step(reversed_tg, state, None if plan is None else _reversed_plan(reversed_tg, plan))
        assert moved > 0.5
        assert np.max(np.abs(state._amps - start._amps)) < 1e-13


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
