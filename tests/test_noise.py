import math

import numpy as np
import pytest

from conftest import random_cover, random_state, reflect
from sqwsim.evolve import WalkState, step
from sqwsim.graph import (
    GridSpec,
    Polygon,
    SimpleGraph,
    TessellatedGraph,
    Tessellation,
    coined_to_staggered,
    make_grid_of_cliques,
)
from sqwsim.noise import (
    SPLIT_POLICIES,
    BreakPlan,
    NoiseSpec,
    plan_step,
    sample_plan,
    _TessellationBreaks,
)
from sqwsim.oracle import apply_plan, break_polygon, polygon_partitions, remove_vertices
from sqwsim.search import partial_cover


class TestNoiseSpec:
    def test_defaults_are_off(self):
        assert NoiseSpec().is_off

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            NoiseSpec(kind="melt")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="break_vertices", p=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(kind="break_vertices", p=float("nan"))

    def test_rejects_p_with_kind_none(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="none", p=0.5)

    def test_scope_only_for_polygons(self):
        with pytest.raises(ValueError, match="scope"):
            NoiseSpec(kind="break_vertices", p=0.1, scope=(0,))
        spec = NoiseSpec(kind="break_polygons", p=0.1, scope=(1, 0, 1))
        assert spec.scope == (0, 1)

    def test_p_zero_is_off(self):
        assert NoiseSpec(kind="break_polygons", p=0.0).is_off

    def test_non_integer_scope_refused(self):
        with pytest.raises(ValueError, match=r"^scope index must be an integer, got 0.5$"):
            NoiseSpec(kind="break_polygons", p=0.1, scope=(0.5, 1.7))

    def test_numpy_integer_scope_matches_ints(self):
        spec = NoiseSpec(kind="break_polygons", p=0.1, scope=(np.int64(1), np.uint8(0)))
        assert spec == NoiseSpec(kind="break_polygons", p=0.1, scope=(0, 1))
        assert all(type(t) is int for t in spec.scope)


class TestBreakPolygon:
    def test_uniform_four_into_singletons(self):
        poly = Polygon.uniform([3, 5, 7, 9])
        parts = break_polygon(poly, [(3,), (5,), (7,), (9,)])
        assert len(parts) == 4
        for part, v in zip(parts, (3, 5, 7, 9)):
            assert part.vertices.tolist() == [v]
            assert np.allclose(part.amplitudes, 1.0)

    def test_uniform_four_into_halves(self):
        poly = Polygon.uniform([0, 1, 2, 3])
        parts = break_polygon(poly, [(0, 1), (2, 3)])
        for part in parts:
            assert np.allclose(part.amplitudes, 1.0 / math.sqrt(2))

    def test_non_uniform_block_norms(self):
        poly = Polygon(np.array([0, 1]), np.array([0.8, 0.6]))
        a, b = break_polygon(poly, [(0,), (1,)])
        assert np.allclose(a.amplitudes, [1.0])
        assert np.allclose(b.amplitudes, [1.0])

    def test_block_norms_square_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            size = int(rng.integers(2, 7))
            amps = random_state(rng, size)
            poly = Polygon(np.arange(size), amps)
            cut = int(rng.integers(1, size))
            blocks = [tuple(range(cut)), tuple(range(cut, size))]
            beta_sq = sum(
                float(np.sum(np.abs(amps[list(block)]) ** 2)) for block in blocks
            )
            assert abs(beta_sq - 1.0) < 1e-12
            parts = break_polygon(poly, blocks)
            for part in parts:
                assert abs(np.linalg.norm(part.amplitudes) - 1.0) < 1e-12

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError, match="not in the polygon"):
            break_polygon(Polygon.uniform([0, 1]), [(0,), (9,)])

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError, match="cover"):
            break_polygon(Polygon.uniform([0, 1, 2]), [(0,), (1,)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="two blocks"):
            break_polygon(Polygon.uniform([0, 1]), [(0,), (0, 1)])

    def test_rejects_zero_norm_block(self):
        # a block of norm zero needs a zero entry, and no polygon holds one
        with pytest.raises(ValueError, match="zero amplitude"):
            Polygon(np.array([0, 1]), np.array([1.0, 0.0]))


class TestRemoveVertices:
    def test_matches_worked_example(self):
        # dropping vertex (0,0,0) of the 3x3 grid: its cell keeps slots 1..3
        # at amplitude 1/sqrt(3), its +x link collapses to the singleton
        # (1,0,2), and every other polygon is untouched
        spec = GridSpec(3, 1)
        tg = make_grid_of_cliques(spec)
        out = remove_vertices(tg, [0])
        cell = out.tessellations[0].polygons[0]
        assert cell.vertices.tolist() == [1, 2, 3]
        assert np.allclose(cell.amplitudes, 1.0 / math.sqrt(3))
        link = out.tessellations[1].polygons[0]
        assert link.vertices.tolist() == [spec.vertex_index(1, 0, 2)]
        assert np.allclose(link.amplitudes, 1.0)
        untouched = sum(
            1
            for before, after in zip(tg.tessellations[0].polygons, out.tessellations[0].polygons)
            if before.vertices.tobytes() == after.vertices.tobytes()
            and before.amplitudes.tobytes() == after.amplitudes.tobytes()
        )
        assert untouched == 8

    def test_empty_removal_returns_same_object(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        assert remove_vertices(tg, []) is tg

    def test_idempotent(self):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        once = remove_vertices(tg, [0, 5, 17])
        again = remove_vertices(once, [0, 5, 17])
        assert again is once

    def test_whole_polygon_disappears(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        out = remove_vertices(tg, [0, 1, 2, 3])
        assert len(out.tessellations[0].polygons) == 3

    def test_out_of_range_rejected(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        with pytest.raises(ValueError, match="range"):
            remove_vertices(tg, [99])


class TestSamplePlan:
    def test_off_spec_gives_empty_plan(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        plan = sample_plan(tg, NoiseSpec(), np.random.default_rng(0))
        assert plan.is_empty

    def test_p_one_singletons_breaks_everything(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_polygons", p=1.0)
        plan = sample_plan(tg, ns, np.random.default_rng(0))
        assert plan.polygon_breaks[0].broken.tolist() == [0, 1, 2, 3]
        assert len(plan.polygon_breaks[1].broken) == 8

    def test_p_one_vertices_breaks_everything(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_vertices", p=1.0)
        plan = sample_plan(tg, ns, np.random.default_rng(0))
        assert plan.broken_vertices.tolist() == list(range(16))

    def test_scope_restricts_tessellations(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_polygons", p=1.0, scope=(1,))
        plan = sample_plan(tg, ns, np.random.default_rng(0))
        assert set(plan.polygon_breaks) == {1}

    def test_scope_out_of_range(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_polygons", p=0.5, scope=(5,))
        with pytest.raises(ValueError, match="scope"):
            sample_plan(tg, ns, np.random.default_rng(0))

    def test_same_seed_same_plan(self):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        ns = NoiseSpec(kind="break_polygons", p=0.4, split_policy="one_vs_rest")
        p1 = sample_plan(tg, ns, np.random.default_rng(8))
        p2 = sample_plan(tg, ns, np.random.default_rng(8))
        assert set(p1.polygon_breaks) == set(p2.polygon_breaks)
        for t_idx in p1.polygon_breaks:
            np.testing.assert_array_equal(p1.polygon_breaks[t_idx].broken, p2.polygon_breaks[t_idx].broken)
            np.testing.assert_array_equal(p1.polygon_breaks[t_idx].lone_slot, p2.polygon_breaks[t_idx].lone_slot)

    def test_lone_slots_in_range(self):
        tg = make_grid_of_cliques(GridSpec(3, 2))
        ns = NoiseSpec(kind="break_polygons", p=0.7, split_policy="one_vs_rest")
        plan = sample_plan(tg, ns, np.random.default_rng(9))
        for t_idx, tb in plan.polygon_breaks.items():
            sizes = np.array([tg.tessellations[t_idx].polygons[int(j)].size for j in tb.broken])
            assert np.all(tb.lone_slot >= 0)
            assert np.all(tb.lone_slot < sizes)

    def test_partitions_view_matches_policy(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_polygons", p=1.0, split_policy="one_vs_rest", scope=(0,))
        plan = sample_plan(tg, ns, np.random.default_rng(4))
        parts = polygon_partitions(plan)
        assert set(parts) == {(0, j) for j in range(4)}
        for (t_idx, j), blocks in parts.items():
            poly = tg.tessellations[t_idx].polygons[j]
            assert len(blocks[0]) == 1
            assert len(blocks[1]) == poly.size - 1
            assert sorted(v for block in blocks for v in block) == sorted(poly.vertices.tolist())


def _array_bound_breaks(tg, spec, rng):
    """The polygon breaks ``sample_plan`` drew before equal-size
    tessellations took the scalar bound: every lone-slot draw passes the
    broken polygons' sizes as an array bound."""
    breaks = {}
    for t_idx in range(tg.num_tessellations) if spec.scope is None else spec.scope:
        tess = tg.tessellations[t_idx]
        broken = np.flatnonzero(rng.random(tess.num_polygons) < spec.p)
        if broken.size:
            lone = rng.integers(0, tess.sizes[broken]) if spec.split_policy == "one_vs_rest" else None
            breaks[t_idx] = (broken, lone)
    return breaks


class TestLoneSlotDraw:
    """Tessellations of one polygon size draw their lone slots with a scalar
    bound; the plans, and the generator after each, must be those of the
    array-bound draw, or every noisy one_vs_rest output would change."""

    def test_scalar_bound_draws_the_array_bound_plans(self):
        covers = []
        for q in (1, 2, 3):
            tg = make_grid_of_cliques(GridSpec(4, q))
            covers += [tg, partial_cover(tg, (3, 3)), partial_cover(tg, (1, 2))]
        ragged = [random_cover(np.random.default_rng(seed), 30, 2, max_polygon=6, uniform=True) for seed in (1, 2)]
        assert all(tess._uniform_size is None for tg in ragged for tess in tg.tessellations)
        assert all(tess._uniform_size is not None for tg in covers for tess in tg.tessellations)
        specs = [NoiseSpec(kind="break_polygons", p=p, split_policy=split)
                 for p in (0.01, 0.1, 0.5) for split in SPLIT_POLICIES]
        lone_slots = 0
        for seed in range(500):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for tg in covers + ragged:
                for spec in specs:
                    plan, want = sample_plan(tg, spec, rng), _array_bound_breaks(tg, spec, reference)
                    assert list(plan.polygon_breaks) == list(want)
                    for t_idx, (broken, lone) in want.items():
                        tb = plan.polygon_breaks[t_idx]
                        assert tb.broken.dtype == broken.dtype and tb.broken.tobytes() == broken.tobytes()
                        if lone is None:
                            assert tb.lone_slot is None
                        else:
                            assert tb.lone_slot.dtype == lone.dtype and tb.lone_slot.tobytes() == lone.tobytes()
                            lone_slots += lone.size
                    assert rng.random() == reference.random()
        assert lone_slots > 100_000


class TestPerturbedStep:
    def test_off_noise_is_bitwise_plain_step(self):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        state = WalkState(random_state(np.random.default_rng(1), 36))
        for ns in (NoiseSpec(), NoiseSpec(kind="break_polygons", p=0.0), NoiseSpec(kind="break_vertices", p=0.0)):
            out = plan_step(sample_plan(tg, ns, np.random.default_rng(0)), state)
            ref = step(tg, state)
            assert out._amps.tobytes() == ref._amps.tobytes()

    @pytest.mark.parametrize(
        "kind,split",
        [
            ("break_vertices", "singletons"),
            ("break_polygons", "singletons"),
            ("break_polygons", "one_vs_rest"),
        ],
    )
    def test_fast_path_matches_materialized_cover(self, kind, split):
        rng = np.random.default_rng(55)
        for trial in range(25):
            num = int(rng.integers(4, 28))
            tg = random_cover(rng, num, int(rng.integers(1, 4)))
            state = WalkState(random_state(rng, num))
            ns = NoiseSpec(kind=kind, p=float(rng.uniform(0.1, 0.9)), split_policy=split)
            plan = sample_plan(tg, ns, np.random.default_rng(900 + trial))
            fast = plan_step(plan, state)
            slow = step(apply_plan(tg, plan), state)
            np.testing.assert_allclose(fast.amplitudes, slow.amplitudes, atol=1e-12)
            assert abs(np.linalg.norm(fast.amplitudes) - 1.0) < 1e-12

    def test_fast_path_matches_on_grid(self):
        spec = GridSpec(4, 2)
        tg = make_grid_of_cliques(spec)
        rng = np.random.default_rng(77)
        state = WalkState(random_state(rng, spec.num_vertices))
        for kind, split in (
            ("break_vertices", "singletons"),
            ("break_polygons", "singletons"),
            ("break_polygons", "one_vs_rest"),
        ):
            ns = NoiseSpec(kind=kind, p=0.3, split_policy=split)
            plan = sample_plan(tg, ns, np.random.default_rng(12))
            fast = plan_step(plan, state)
            slow = step(apply_plan(tg, plan), state)
            np.testing.assert_allclose(fast.amplitudes, slow.amplitudes, atol=1e-12)

    def test_broken_vertex_magnitudes_invariant_over_two_tessellations(self):
        # a fully dropped vertex picks up -1 from each of the two
        # tessellations, so its amplitude is exactly restored
        tg = make_grid_of_cliques(GridSpec(3, 1))
        rng = np.random.default_rng(13)
        state = WalkState(random_state(rng, 36))
        ns = NoiseSpec(kind="break_vertices", p=0.3)
        plan = sample_plan(tg, ns, np.random.default_rng(21))
        assert plan.broken_vertices.size > 0
        out = plan_step(plan, state)
        np.testing.assert_array_equal(
            out.amplitudes[plan.broken_vertices], state.amplitudes[plan.broken_vertices]
        )

    def test_full_polygon_break_equals_skipping_tessellation(self):
        # breaking every cell polygon into singletons makes tessellation 0
        # act as identity, so the step reduces to the link reflection alone
        tg = make_grid_of_cliques(GridSpec(3, 1))
        state = WalkState(random_state(np.random.default_rng(2), 36))
        ns = NoiseSpec(kind="break_polygons", p=1.0, scope=(0,))
        out = plan_step(sample_plan(tg, ns, np.random.default_rng(0)), state)
        ref = reflect(tg.tessellations[1], state)
        np.testing.assert_allclose(out.amplitudes, ref.amplitudes, atol=1e-13)

    def test_zero_amplitude_entry_rejected_by_both_routes(self):
        # dropping vertex 0 would leave polygon {0, 1} a block of norm zero,
        # so the cover is refused before either route can walk it
        with pytest.raises(ValueError, match="zero amplitude"):
            Polygon(np.array([0, 1]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="zero amplitude"):
            Tessellation(np.arange(4), np.array([0, 2, 4]), np.array([1.0, 0.0, 0.6, 0.8]))

    @pytest.mark.parametrize("kind", ["mask", *SPLIT_POLICIES])
    def test_plan_that_breaks_nothing_walks_the_clean_path(self, kind):
        # an all-False mask, or a tessellation entry that breaks no polygon,
        # walked the patched pass, whose renormalized factors put it off the
        # clean step in the last bits after 3 steps
        tg = make_grid_of_cliques(GridSpec(5, 1))
        if kind == "mask":
            plan = BreakPlan(tg, broken_vertex_mask=np.zeros(tg.num_vertices, dtype=bool))
        else:
            none = np.empty(0, dtype=np.int64)
            lone = None if kind == "singletons" else none
            plan = BreakPlan(tg, polygon_breaks={1: _TessellationBreaks(broken=none, lone_slot=lone)})
        assert plan.is_empty and plan.broken_vertex_mask is None and plan.polygon_breaks == {}
        assert plan.broken_vertices.size == 0
        state = WalkState(random_state(np.random.default_rng(17), tg.num_vertices))
        noisy = clean = materialized = state
        for _ in range(3):
            noisy, clean = plan_step(plan, noisy), step(tg, clean)
            materialized = step(apply_plan(tg, plan), materialized)
        assert noisy._amps.tobytes() == clean._amps.tobytes() == materialized._amps.tobytes()

    def test_plan_carries_its_broken_vertices_ascending(self):
        tg = make_grid_of_cliques(GridSpec(5, 1))
        plan = sample_plan(tg, NoiseSpec(kind="break_vertices", p=0.3), np.random.default_rng(3))
        assert np.array_equal(plan.broken_vertices, np.flatnonzero(plan.broken_vertex_mask))
        mask = plan.broken_vertex_mask.copy()
        assert np.array_equal(BreakPlan(tg, broken_vertex_mask=mask).broken_vertices, plan.broken_vertices)

    def test_mixed_plan_rejected(self):
        # apply_plan would drop only the vertex, plan_step would let the
        # polygon break replace the broken vertex on tessellation 0
        tg = make_grid_of_cliques(GridSpec(2, 1))
        mask = np.zeros(tg.num_vertices, dtype=bool)
        mask[0] = True
        breaks = {0: _TessellationBreaks(broken=np.array([1]), lone_slot=None)}
        with pytest.raises(ValueError, match="not both"):
            BreakPlan(tg, broken_vertex_mask=mask, polygon_breaks=breaks)

    @pytest.mark.parametrize(
        "mask",
        [
            # 41 entries on 36 vertices, the last set: plan_step ignored the break
            # past the cover, and apply_plan refused it as out of range
            np.arange(41) == 40,
            np.arange(35) == 3,
            (np.arange(36) == 3).astype(int),
            (np.arange(36) == 3)[:, None],
            list(np.arange(36) == 3),
        ],
        ids=["long", "short", "int", "2d", "list"],
    )
    def test_mask_needs_one_flag_per_vertex(self, mask):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        with pytest.raises(ValueError, match=r"^broken_vertex_mask must be a bool array of shape \(36,\)$"):
            BreakPlan(tg, broken_vertex_mask=mask)
        assert BreakPlan(tg, broken_vertex_mask=np.arange(36) == 3).broken_vertices.tolist() == [3]

    @pytest.mark.parametrize(
        "breaks, message",
        [
            # plan_step ignored a key past the cover, and apply_plan raised IndexError
            ({5: ([1], None)}, r"^polygon_breaks key 5 is not a tessellation of the cover, which has 2$"),
            ({-1: ([1], None)}, r"^polygon_breaks key -1 is not a tessellation"),
            ({1.0: ([1], None)}, r"^polygon_breaks key must be an integer, got 1.0$"),
            ({0: ([3, 1], None)}, r"^broken polygons of tessellation 0 must be a 1-d integer array"),
            ({0: ([1, 1], None)}, r"^broken polygons of tessellation 0 must be"),
            ({0: ([-1], None)}, r"^broken polygons of tessellation 0 must be .* in \[0, 9\)$"),
            ({1: ([18], None)}, r"^broken polygons of tessellation 1 must be .* in \[0, 18\)$"),
            ({0: (np.array([1.0]), None)}, r"^broken polygons of tessellation 0 must be"),
            ({0: (np.array([[1]]), None)}, r"^broken polygons of tessellation 0 must be"),
            ({0: ([True], None)}, r"^broken polygons of tessellation 0 must be"),
            # plan_step walked slot -1 as slot 3, and apply_plan refused it
            ({0: ([1], [-1])}, r"^lone slots of tessellation 0 must be an integer array"),
            # slot 4 of a 4-clique: a bare IndexError on both routes
            ({0: ([1], [4])}, r"^lone slots of tessellation 0 must be"),
            ({1: ([2, 5], [0, 2])}, r"^lone slots of tessellation 1 must be"),
            ({0: ([1, 2], [0])}, r"^lone slots of tessellation 0 must be"),
            ({0: ([1], np.array([0.0]))}, r"^lone slots of tessellation 0 must be"),
        ],
    )
    def test_caller_plan_the_routes_read_differently_is_refused(self, breaks, message):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        polygon_breaks = {
            key: _TessellationBreaks(
                broken=np.asarray(broken), lone_slot=None if lone is None else np.asarray(lone))
            for key, (broken, lone) in breaks.items()
        }
        with pytest.raises(ValueError, match=message):
            BreakPlan(tg, polygon_breaks=polygon_breaks)

    def test_caller_plan_inside_the_cover_walks_alike_on_both_routes(self):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        plan = BreakPlan(tg, polygon_breaks={
            np.int64(0): _TessellationBreaks(broken=np.array([0, 4, 8]), lone_slot=np.array([3, 0, 2])),
            1: _TessellationBreaks(broken=np.array([], dtype=np.int64), lone_slot=np.array([], dtype=np.int64)),
        })
        state = WalkState(random_state(np.random.default_rng(3), tg.num_vertices))
        np.testing.assert_allclose(
            plan_step(plan, state).amplitudes, step(apply_plan(tg, plan), state).amplitudes, atol=1e-13)

    @pytest.mark.parametrize("dtype", sorted({np.dtype(c) for c in np.typecodes["AllInteger"]}, key=str), ids=str)
    def test_caller_plan_of_any_integer_dtype_walks_as_the_materialized_route(self, dtype):
        # a lone slot's entry index, slot * P + polygon, overflowed a narrow
        # dtype: 3 * 100 + 90 in int8 and uint8, 1 * 20000 + 15000 in int16
        cases = [(GridSpec(10, 1), 0, [90, 95], [3, 2]), (GridSpec(100, 1), 1, [15000, 19999], [1, 0])]
        rng = np.random.default_rng(19)
        for spec, t_idx, broken, lone in cases:
            if np.iinfo(dtype).max < max(broken):
                continue
            tg = make_grid_of_cliques(spec)
            state = WalkState(random_state(rng, tg.num_vertices))
            for lone_slot in (None, np.array(lone, dtype=dtype)):
                plan = BreakPlan(tg, polygon_breaks={
                    t_idx: _TessellationBreaks(broken=np.array(broken, dtype=dtype), lone_slot=lone_slot)})
                np.testing.assert_allclose(
                    plan_step(plan, state).amplitudes, step(apply_plan(tg, plan), state).amplitudes, atol=1e-15)

    def test_caller_plan_keeps_read_only_copies_of_its_arrays(self):
        # writing lone slots past the polygon size after the check made the
        # step raise IndexError
        tg = make_grid_of_cliques(GridSpec(3, 1))
        state = WalkState(random_state(np.random.default_rng(20), tg.num_vertices))
        broken, lone, mask = np.array([0, 4], dtype=np.int32), np.array([3, 0], dtype=np.uint8), np.arange(36) == 5
        plans = [BreakPlan(tg, polygon_breaks={0: _TessellationBreaks(broken=broken, lone_slot=lone)}),
                 BreakPlan(tg, broken_vertex_mask=mask)]
        walked = [plan_step(plan, state)._amps.tobytes() for plan in plans]
        broken[:], lone[:], mask[:] = [7, 8], [9, 9], True
        assert [plan_step(plan, state)._amps.tobytes() for plan in plans] == walked
        kept = plans[0].polygon_breaks[0]
        for arr in (kept.broken, kept.lone_slot):
            assert arr.dtype == np.intp and not arr.flags.writeable
        assert kept.broken.tolist() == [0, 4] and kept.lone_slot.tolist() == [3, 0]
        assert not plans[1].broken_vertex_mask.flags.writeable and plans[1].broken_vertices.tolist() == [5]

    def test_sampler_skips_the_plan_check(self, monkeypatch):
        # sample_plan's plans hold the checked properties by construction, so
        # it builds them without the check
        def refuse(plan):
            raise AssertionError("the plan check ran")

        monkeypatch.setattr(BreakPlan, "__post_init__", refuse)
        tg = partial_cover(make_grid_of_cliques(GridSpec(3, 2)), (1, 1))
        with pytest.raises(AssertionError, match="the plan check ran"):
            BreakPlan(tg)
        rng = np.random.default_rng(6)
        specs = [NoiseSpec(), NoiseSpec(kind="break_vertices", p=0.0), NoiseSpec(kind="break_vertices", p=0.3),
                 NoiseSpec(kind="break_polygons", p=0.5), NoiseSpec(kind="break_polygons", p=0.5,
                                                                     split_policy="one_vs_rest")]
        for spec in specs:
            plan = sample_plan(tg, spec, rng)
            assert plan.cover is tg and plan.is_empty == spec.is_off

    def test_plan_for_wrong_cover_rejected(self):
        tg1 = make_grid_of_cliques(GridSpec(2, 1))
        tg2 = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_polygons", p=1.0)
        plan = sample_plan(tg1, ns, np.random.default_rng(0))
        with pytest.raises(ValueError, match="different cover"):
            apply_plan(tg2, plan)

    def test_empirical_vertex_break_rate(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        ns = NoiseSpec(kind="break_vertices", p=0.2)
        rng = np.random.default_rng(99)
        total = 0
        hits = 0
        for _ in range(500):
            plan = sample_plan(tg, ns, rng)
            total += tg.num_vertices
            hits += plan.broken_vertices.size
        rate = hits / total
        sd = math.sqrt(0.2 * 0.8 / total)
        assert abs(rate - 0.2) < 3.5 * sd


def _real_covers() -> dict[str, TessellatedGraph]:
    """Real covers of every compiled layout: in-place and gathered blocks of
    m = 4 and m = 12 slots, a block with the marked cell left out, and the
    ragged coin tessellation of an irregular graph (flat ``reduceat``)."""
    covers = {}
    for q in (1, 3):
        tg = make_grid_of_cliques(GridSpec(4, q))
        covers[f"grid_q{q}"] = tg
        covers[f"partial_q{q}"] = partial_cover(tg, (1, 2))
    ring = [(v, (v + 1) % 12) for v in range(12)]
    irregular = SimpleGraph(12, frozenset(ring + [(0, 3), (0, 6), (0, 8), (2, 9), (4, 10)]))
    covers["coined_ragged"] = coined_to_staggered(irregular)[0]
    return covers


REAL_COVERS = _real_covers()
ROUTE_NOISE = {
    "none": NoiseSpec(),
    "vertices": NoiseSpec(kind="break_vertices", p=0.3),
    "singletons": NoiseSpec(kind="break_polygons", p=0.3, split_policy="singletons"),
    "one_vs_rest": NoiseSpec(kind="break_polygons", p=0.3, split_policy="one_vs_rest"),
}


class TestRealRoute:
    """A real cover walks a real state in float64 and any other state in
    complex128.  Both routes add the same terms in the same order, so a step
    of i*psi has as imaginary part exactly the step of psi."""

    @pytest.mark.parametrize("noise", sorted(ROUTE_NOISE))
    @pytest.mark.parametrize("cover", sorted(REAL_COVERS))
    def test_real_route_equals_complex_route_bit_for_bit(self, cover, noise):
        tg = REAL_COVERS[cover]
        psi = np.random.default_rng(4).normal(size=tg.num_vertices)
        real = WalkState(psi / math.sqrt(np.sum(psi * psi)))
        imag = WalkState(1j * real.amplitudes.real)
        rng = np.random.default_rng(6)
        for _ in range(3):
            plan = sample_plan(tg, ROUTE_NOISE[noise], rng)
            real, imag = plan_step(plan, real), plan_step(plan, imag)
            assert real._amps.dtype == np.float64 and imag._amps.dtype == np.complex128
            assert real.amplitudes.dtype == np.complex128
            assert not real.amplitudes.imag.any()
            assert np.array_equal(imag.amplitudes.imag, real.amplitudes.real)
            assert np.array_equal(real._amps, real.amplitudes.real)

    @pytest.mark.parametrize("cover", sorted(REAL_COVERS))
    def test_full_breaks_are_exact_identities_on_both_routes(self, cover):
        # every vertex broken: -I from each of the two tessellations; every
        # polygon split into singletons: +I on covered entries, -I elsewhere
        tg = REAL_COVERS[cover]
        psi = np.random.default_rng(5).normal(size=tg.num_vertices)
        psi /= math.sqrt(np.sum(psi * psi))
        uncovered = np.zeros(tg.num_vertices, dtype=int)
        for tess in tg.tessellations:
            uncovered += 1
            uncovered[tess.vertices] -= 1
        sign = np.where(uncovered % 2 == 1, -1.0, 1.0)
        for spec, expected in (
            (NoiseSpec(kind="break_vertices", p=1.0), psi),
            (NoiseSpec(kind="break_polygons", p=1.0, split_policy="singletons"), sign * psi),
        ):
            plan = sample_plan(tg, spec, np.random.default_rng(0))
            for phase in (1.0, 1j):
                out = plan_step(plan, WalkState(phase * psi)).amplitudes
                assert np.array_equal(out, phase * expected)
