import multiprocessing

import numpy as np
import pytest

from conftest import random_state, reflect
from sqwsim.evolve import WalkState, step, uniform_state
from sqwsim.graph import GridSpec, make_grid_of_cliques, validate_cover
from sqwsim.noise import NoiseSpec
from sqwsim.search import (
    RunSummary,
    SearchConfig,
    SuccessSeries,
    default_step_budget,
    partial_cover,
    peak_metrics,
    run_search,
    success_probability,
)


class TestStepBudget:
    def test_documented_value(self):
        assert default_step_budget(GridSpec(10, 1)) == 33

    def test_independent_of_q(self):
        assert default_step_budget(GridSpec(20, 1)) == default_step_budget(GridSpec(20, 3))

    def test_grows_with_n(self):
        budgets = [default_step_budget(GridSpec(n, 1)) for n in (5, 10, 20, 40)]
        assert budgets == sorted(budgets)

    @pytest.mark.parametrize("factor", [float("inf"), float("nan"), 0.0, -1.0, 1e308])
    def test_rejects_factor_without_a_finite_positive_budget(self, factor):
        with pytest.raises(ValueError, match="step budget"):
            default_step_budget(GridSpec(4, 1), factor)

    def test_tiny_factor_gives_one_step(self):
        assert default_step_budget(GridSpec(4, 1), 1e-9) == 1


class TestPartialCover:
    def test_marked_polygon_removed(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        part = partial_cover(tg, (1, 0))
        assert len(part.tessellations[0].polygons) == 3
        removed = {tuple(p.vertices.tolist()) for p in tg.tessellations[0].polygons}
        kept = {tuple(p.vertices.tolist()) for p in part.tessellations[0].polygons}
        assert removed - kept == {(8, 9, 10, 11)}

    def test_validation_reports_uncovered_marked_clique(self):
        tg = make_grid_of_cliques(GridSpec(3, 1))
        report = validate_cover(partial_cover(tg, (0, 0)))
        assert not report.partition_ok
        assert {(0, v) for v in range(4)} == set(report.uncovered_vertices)

    def test_step_negates_marked_clique_of_localized_state(self):
        spec = GridSpec(3, 1)
        tg = make_grid_of_cliques(spec)
        part = partial_cover(tg, (1, 1))
        amps = np.zeros(spec.num_vertices, dtype=complex)
        marked_slice = spec.cell_slice(1, 1)
        amps[marked_slice] = 0.5
        out = reflect(part.tessellations[0], WalkState(amps))
        np.testing.assert_allclose(out.amplitudes[marked_slice], -0.5)

    def test_rejects_non_grid_cover(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        part = partial_cover(tg, (0, 0))
        with pytest.raises(ValueError):
            partial_cover(part, (0, 0))

    def test_rejects_marked_outside_grid(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        with pytest.raises(ValueError):
            partial_cover(tg, (2, 0))


class TestSuccessProbability:
    def test_uniform_state(self):
        spec = GridSpec(5, 1)
        assert abs(success_probability(uniform_state(spec.num_vertices), spec, (2, 3)) - 1 / 25) < 1e-15

    def test_all_mass_on_marked(self):
        spec = GridSpec(3, 1)
        amps = np.zeros(spec.num_vertices, dtype=complex)
        amps[spec.cell_slice(2, 1)] = 0.5
        assert abs(success_probability(WalkState(amps), spec, (2, 1)) - 1.0) < 1e-15

    def test_cells_partition_total_probability(self):
        spec = GridSpec(4, 2)
        state = WalkState(random_state(np.random.default_rng(17), spec.num_vertices))
        total = sum(
            success_probability(state, spec, (x, y)) for x in range(4) for y in range(4)
        )
        assert abs(total - 1.0) < 1e-12


class TestSearchConfig:
    def test_default_budget_filled_in(self):
        cfg = SearchConfig(spec=GridSpec(10, 1))
        assert cfg.max_steps == 33

    def test_rejects_bad_marked(self):
        with pytest.raises(ValueError):
            SearchConfig(spec=GridSpec(4, 1), marked=(4, 0))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            SearchConfig(spec=GridSpec(4, 1), runs=0)

    def test_rejects_non_integer_marked(self):
        with pytest.raises(ValueError, match=r"^marked cell coordinate must be an integer, got 0.5$"):
            SearchConfig(spec=GridSpec(4), marked=(0.5, 1.9))

    def test_numpy_integers_give_the_same_search(self):
        noise = NoiseSpec(kind="break_polygons", p=0.2, scope=(np.int64(0),))
        cfg = SearchConfig(GridSpec(np.int64(4)), marked=(np.int64(1), np.int32(2)), noise=noise,
                           max_steps=np.int32(6), runs=np.uint8(2), master_seed=np.int64(9))
        want = SearchConfig(GridSpec(4), marked=(1, 2), noise=NoiseSpec("break_polygons", 0.2, scope=(0,)),
                            max_steps=6, runs=2, master_seed=9)
        assert cfg == want and all(type(v) is int for v in (*cfg.marked, cfg.max_steps, cfg.runs, cfg.master_seed))
        for got, expected in zip(run_search(cfg), run_search(want), strict=True):
            assert got.run_seed == expected.run_seed
            assert got.probabilities.tobytes() == expected.probabilities.tobytes()

    @pytest.mark.parametrize(
        "field, value, name",
        [("runs", 2.5, "runs"), ("master_seed", 1.5, "master seed"), ("max_steps", 3.5, "max_steps"),
         ("runs", "2", "runs"), ("max_steps", 3.0, "max_steps")],
    )
    def test_non_integer_counts_refused_up_front(self, field, value, name):
        # these were accepted, then failed in run_search with a TypeError
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            SearchConfig(GridSpec(4), **{field: value})


class TestRunSearch:
    def test_noiseless_runs_identical(self):
        cfg = SearchConfig(spec=GridSpec(6, 1), runs=4, master_seed=3)
        series = run_search(cfg)
        assert len(series) == 4
        for s in series[1:]:
            np.testing.assert_array_equal(s.probabilities, series[0].probabilities)
        assert len({s.run_seed for s in series}) == 4

    def test_starts_at_inverse_cell_count(self):
        cfg = SearchConfig(spec=GridSpec(8, 1))
        series = run_search(cfg)[0].probabilities
        assert abs(series[0] - 1 / 64) < 1e-12
        assert series.shape == (cfg.max_steps + 1,)

    def test_amplification_over_baseline(self):
        series = run_search(SearchConfig(spec=GridSpec(10, 1)))[0].probabilities
        assert series.max() > 20 * series[0]

    def test_matches_manual_iteration(self):
        spec = GridSpec(6, 1)
        cfg = SearchConfig(spec=spec, marked=(2, 4), max_steps=12)
        series = run_search(cfg)[0].probabilities
        part = partial_cover(make_grid_of_cliques(spec), (2, 4))
        state = uniform_state(spec.num_vertices)
        expect = [success_probability(state, spec, (2, 4))]
        for _ in range(12):
            state = step(part, state)
            expect.append(success_probability(state, spec, (2, 4)))
        np.testing.assert_allclose(series, expect, atol=1e-15)

    def test_noisy_runs_differ_but_are_seed_stable(self):
        ns = NoiseSpec(kind="break_polygons", p=0.2)
        cfg = SearchConfig(spec=GridSpec(5, 1), noise=ns, runs=3, master_seed=11)
        first = run_search(cfg)
        second = run_search(cfg)
        assert not np.array_equal(first[0].probabilities, first[1].probabilities)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.probabilities, b.probabilities)
            assert a.run_seed == b.run_seed

    def test_workers_do_not_change_results(self):
        ns = NoiseSpec(kind="break_vertices", p=0.1)
        cfg = SearchConfig(spec=GridSpec(5, 1), noise=ns, runs=5, master_seed=23)
        serial = run_search(cfg, workers=1)
        parallel = run_search(cfg, workers=2)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_serial_fallback_without_fork(self, monkeypatch):
        ns = NoiseSpec(kind="break_vertices", p=0.1)
        cfg = SearchConfig(spec=GridSpec(5, 1), noise=ns, runs=3, master_seed=29)
        serial = run_search(cfg, workers=1)
        asked = []

        def no_fork(method=None):
            asked.append(method)
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        fallback = run_search(cfg, workers=3)
        assert asked == ["fork"]
        assert len(fallback) == len(serial)
        for a, b in zip(serial, fallback):
            np.testing.assert_array_equal(a.probabilities, b.probabilities)
            assert a.run_seed == b.run_seed

    def test_p_one_vertex_breaking_freezes_success(self):
        # with every vertex broken every step, each step multiplies the
        # state by (-1)^2; the uniform state never moves
        spec = GridSpec(4, 1)
        ns = NoiseSpec(kind="break_vertices", p=1.0)
        cfg = SearchConfig(spec=spec, noise=ns, max_steps=10, master_seed=0)
        series = run_search(cfg)[0].probabilities
        np.testing.assert_allclose(series, 1 / 16, atol=1e-14)


class TestPeakMetrics:
    def test_simple_series(self):
        summary = peak_metrics(np.array([0.01, 0.25, 0.16]))
        assert summary == RunSummary(t_peak=1, p_peak=0.25, running_time=2.0)

    def test_tie_takes_earliest(self):
        assert peak_metrics(np.array([0.1, 0.4, 0.4])).t_peak == 1

    def test_flat_series_peaks_at_zero(self):
        assert peak_metrics(np.array([0.2, 0.2, 0.2])).t_peak == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            peak_metrics(np.array([]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="never"):
            peak_metrics(np.zeros(5))


class TestSuccessSeries:
    def test_clips_rounding_noise(self):
        s = SuccessSeries(np.array([0.5, 1.0 + 1e-12]), run_seed=0)
        assert s.probabilities[1] == 1.0

    def test_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            SuccessSeries(np.array([0.5, 1.5]), run_seed=0)
