import math

import numpy as np
import pytest

from conftest import random_state
from sqwsim.analysis import (
    AggregateSeries,
    PositionDistribution,
    _classical_walk,
    aggregate,
    check_dihedral_symmetry,
    classical_sigma_series,
    displacement_experiment,
    position_distribution,
    torus_displacement_stats,
)
from sqwsim.evolve import WalkState, _abs2, localized_clique_state, uniform_state
from sqwsim.graph import GridSpec
from sqwsim.noise import NoiseSpec


def classical_distribution(n, steps):
    """The classical walk's distribution after ``steps`` ticks."""
    *_, probs = _classical_walk(n, steps)
    return PositionDistribution(probs)


def delta_distribution(n, x, y):
    probs = np.zeros((n, n))
    probs[x, y] = 1.0
    return PositionDistribution(probs)


class TestPositionDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            PositionDistribution(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            PositionDistribution(np.full((2, 2), 0.3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            PositionDistribution(np.full((2, 3), 1 / 6))

    def test_from_localized_state(self):
        spec = GridSpec(4, 1)
        dist = position_distribution(localized_clique_state(spec, 1, 2), spec)
        assert dist.probabilities[1, 2] == pytest.approx(1.0)

    def test_from_uniform_state(self):
        spec = GridSpec(4, 2)
        dist = position_distribution(uniform_state(spec.num_vertices), spec)
        np.testing.assert_allclose(dist.probabilities, 1 / 16)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_per_cell_row_sums(self, q):
        spec = GridSpec(5, q)
        amps = random_state(np.random.default_rng(q), spec.num_vertices)
        want = (amps.real**2 + amps.imag**2).reshape(5, 5, 4 * q).sum(axis=2)
        got = position_distribution(WalkState(amps), spec).probabilities
        if q == 1:
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_sums_cell_slots(self):
        spec = GridSpec(2, 1)
        amps = np.zeros(16, dtype=complex)
        amps[spec.cell_slice(1, 1)] = [0.5, 0.5j, -0.5, 0.5]
        dist = position_distribution(WalkState(amps), spec)
        assert dist.probabilities[1, 1] == pytest.approx(1.0)


class TestTorusDisplacementStats:
    def test_point_mass_at_origin(self):
        stats = torus_displacement_stats(delta_distribution(5, 2, 3), origin=(2, 3))
        assert stats == (0.0, 0.0, 0.0)

    def test_symmetric_pair_has_zero_mean_unit_sigma(self):
        n = 7
        probs = np.zeros((n, n))
        probs[1, 0] = 0.5
        probs[n - 1, 0] = 0.5
        stats = torus_displacement_stats(PositionDistribution(probs), origin=(0, 0))
        assert stats.mean_dx == pytest.approx(0.0)
        assert stats.mean_dy == pytest.approx(0.0)
        assert stats.sigma == pytest.approx(1.0)

    def test_mean_shift_detected(self):
        stats = torus_displacement_stats(delta_distribution(9, 3, 0), origin=(0, 0))
        assert stats.mean_dx == pytest.approx(3.0)
        assert stats.sigma == pytest.approx(0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        n = 8
        raw = rng.random((n, n))
        raw /= raw.sum()
        base = torus_displacement_stats(PositionDistribution(raw), origin=(1, 2))
        shifted = torus_displacement_stats(
            PositionDistribution(np.roll(raw, (3, 4), axis=(0, 1))), origin=(4, 6)
        )
        assert base.sigma == pytest.approx(shifted.sigma)
        assert base.mean_dx == pytest.approx(shifted.mean_dx)
        assert base.mean_dy == pytest.approx(shifted.mean_dy)

    def test_wraparound_uses_minimal_image(self):
        stats = torus_displacement_stats(delta_distribution(10, 9, 0), origin=(0, 0))
        assert stats.mean_dx == pytest.approx(-1.0)


def _slot_sum_probabilities(state: WalkState, spec: GridSpec) -> np.ndarray:
    """The earlier cell probabilities: every |amplitude|^2 of the state at
    once, then the cells' slot columns added in slot order."""
    slots = _abs2(state).reshape(-1, spec.cell_size)
    probs = slots[:, 0].copy()
    for k in range(1, spec.cell_size):
        probs += slots[:, k]
    return probs.reshape(spec.n, spec.n)


def _minimal_image(n: int, origin: int) -> np.ndarray:
    half = n // 2
    return ((np.arange(n) - origin + half) % n) - half


def _fresh_displacement_stats(dist: PositionDistribution, origin: tuple[int, int]) -> tuple:
    """The earlier displacement statistics, with minimal-image vectors built
    afresh on every call."""
    dx = _minimal_image(dist.n, origin[0]).astype(np.float64)
    dy = _minimal_image(dist.n, origin[1]).astype(np.float64)
    px, py = dist.probabilities.sum(axis=1), dist.probabilities.sum(axis=0)
    mean_dx, mean_dy = float(dx @ px), float(dy @ py)
    second = float((dx**2) @ px + (dy**2) @ py)
    return mean_dx, mean_dy, math.sqrt(max(second - mean_dx**2 - mean_dy**2, 0.0))


class TestSigmaBits:
    """Sigma is an output compared byte for byte: the column-at-a-time
    squares and the cached displacements must give the bits of the formulas
    above."""

    @pytest.mark.parametrize("far", [False, True], ids=["origin_0_0", "origin_last_2"])
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_distribution_and_stats_keep_their_bits(self, dtype, q, far):
        spec = GridSpec(9, q)
        origin = (spec.n - 1, 2) if far else (0, 0)
        rng = np.random.default_rng(40 + q)
        amps = random_state(rng, spec.num_vertices)
        if dtype == np.float64:
            amps = amps.real / np.linalg.norm(amps.real)
        state = WalkState(amps)
        assert state._amps.dtype == dtype
        dist = position_distribution(state, spec)
        assert np.array_equal(dist.probabilities, _slot_sum_probabilities(state, spec))
        for _ in range(2):  # the second call reads the cached displacements
            assert tuple(torus_displacement_stats(dist, origin)) == _fresh_displacement_stats(dist, origin)


class TestClassicalWalk:
    def test_step_zero_is_delta(self):
        dist = classical_distribution(5, 0)
        assert dist.probabilities[0, 0] == 1.0

    def test_one_step_quarters(self):
        dist = classical_distribution(5, 1)
        assert dist.probabilities[1, 0] == pytest.approx(0.25)
        assert dist.probabilities[4, 0] == pytest.approx(0.25)
        assert dist.probabilities[0, 1] == pytest.approx(0.25)
        assert dist.probabilities[0, 4] == pytest.approx(0.25)

    def test_sigma_is_sqrt_t_before_wraparound(self):
        series = classical_sigma_series(100, 100)
        ts = np.arange(101)
        np.testing.assert_allclose(series, np.sqrt(ts), rtol=1e-2, atol=1e-12)
        assert series[100] == pytest.approx(10.0, rel=1e-2)
        assert series[50] == pytest.approx(math.sqrt(50), rel=1e-12)

    def test_mass_conserved(self):
        dist = classical_distribution(6, 25)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("walk", [classical_distribution, classical_sigma_series])
    @pytest.mark.parametrize("n,steps,message", [(0, 5, "n must be positive"), (5, -1, "steps must be non-negative")])
    def test_rejects_bad_inputs(self, walk, n, steps, message):
        with pytest.raises(ValueError, match=message):
            walk(n, steps)


class TestAggregate:
    def test_identical_runs_have_zero_ci(self):
        runs = [np.array([0.1, 0.2])] * 5
        agg = aggregate(runs)
        np.testing.assert_allclose(agg.mean, [0.1, 0.2])
        np.testing.assert_allclose(agg.ci_halfwidth, 0.0)
        assert agg.num_runs == 5

    def test_two_runs(self):
        agg = aggregate([np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        np.testing.assert_allclose(agg.mean, [0.5, 0.5])
        sd = np.std([0.0, 1.0], ddof=1)
        np.testing.assert_allclose(agg.ci_halfwidth, 1.96 * sd / math.sqrt(2))

    def test_single_run_zero_ci(self):
        agg = aggregate([np.array([0.3, 0.4])])
        np.testing.assert_allclose(agg.ci_halfwidth, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_ci_covers_true_mean_for_bernoulli(self):
        # 95% normal interval over 100 Bernoulli(0.3) draws: coverage over
        # repeated trials should sit near 0.95
        rng = np.random.default_rng(123)
        covered = 0
        trials = 300
        for _ in range(trials):
            draws = (rng.random((100, 1)) < 0.3).astype(float)
            agg = aggregate(list(draws))
            if abs(agg.mean[0] - 0.3) <= agg.ci_halfwidth[0]:
                covered += 1
        assert 0.90 <= covered / trials <= 0.985


class TestDihedralSymmetry:
    def test_uniform_is_symmetric(self):
        n = 6
        dist = PositionDistribution(np.full((n, n), 1 / 36))
        assert check_dihedral_symmetry(dist, (2, 3)) == 0.0

    def test_delta_at_origin_is_symmetric(self):
        assert check_dihedral_symmetry(delta_distribution(5, 1, 4), origin=(1, 4)) == 0.0

    def test_detects_asymmetry(self):
        n = 5
        probs = np.zeros((n, n))
        probs[1, 0] = 1.0
        assert check_dihedral_symmetry(PositionDistribution(probs), (0, 0)) == pytest.approx(1.0)

    def test_symmetrized_random_distribution_passes(self):
        rng = np.random.default_rng(8)
        n = 9
        raw = rng.random((n, n))
        acc = np.zeros((n, n))
        neg = lambda m, ax: np.roll(np.flip(m, axis=ax), 1, axis=ax)
        for mat in (raw, raw.T):
            for fx in (False, True):
                for fy in (False, True):
                    img = mat
                    if fx:
                        img = neg(img, 0)
                    if fy:
                        img = neg(img, 1)
                    acc += img
        acc /= acc.sum()
        assert check_dihedral_symmetry(PositionDistribution(acc), (0, 0)) < 1e-14


class TestDisplacementExperiment:
    def test_shapes_and_baseline(self):
        res = displacement_experiment(GridSpec(6, 1), 5, runs=3, master_seed=1)
        assert res.sigma.mean.shape == (6,)
        assert res.sigma.mean[0] == 0.0
        # noiseless runs are replicas; CI only differs from 0 by mean round-off
        np.testing.assert_allclose(res.sigma.ci_halfwidth, 0.0, atol=1e-14)
        assert res.classical_sigma[1] == pytest.approx(1.0)
        assert len(res.run_seeds) == 3

    def test_noiseless_spread_beats_classical(self):
        res = displacement_experiment(GridSpec(30, 1), 12)
        assert res.sigma.mean[12] > 2.0 * res.classical_sigma[12]

    def test_seed_stability_and_worker_independence(self):
        ns = NoiseSpec(kind="break_polygons", p=0.2)
        a = displacement_experiment(GridSpec(6, 1), 6, noise=ns, runs=4, master_seed=5)
        b = displacement_experiment(GridSpec(6, 1), 6, noise=ns, runs=4, master_seed=5, workers=2)
        np.testing.assert_array_equal(a.sigma.mean, b.sigma.mean)
        np.testing.assert_array_equal(
            a.mean_distribution.probabilities, b.mean_distribution.probabilities
        )

    def test_off_center_origin(self):
        res = displacement_experiment(GridSpec(8, 1), 4, origin=(3, 5))
        assert res.sigma.mean[4] > 0.5

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError):
            displacement_experiment(GridSpec(4, 1), 3, origin=(4, 0))

    def test_rejects_non_integer_origin(self):
        with pytest.raises(ValueError, match=r"^origin coordinate must be an integer, got 0.5$"):
            displacement_experiment(GridSpec(4, 1), 3, origin=(0.5, 0))

    def test_numpy_integer_origin_matches_ints(self):
        got = displacement_experiment(GridSpec(np.int64(8)), 4, origin=(np.int64(3), np.int32(5)))
        want = displacement_experiment(GridSpec(8), 4, origin=(3, 5))
        assert got.sigma.mean.tobytes() == want.sigma.mean.tobytes()
        assert got.mean_distribution.probabilities.tobytes() == want.mean_distribution.probabilities.tobytes()


class TestSigmaLinearGrowth:
    def test_noiseless_sigma_grows_linearly(self):
        res = displacement_experiment(GridSpec(60, 1), 25)
        ts = np.arange(8, 26, dtype=float)
        vals = res.sigma.mean[8:26]
        slope, intercept = np.polyfit(ts, vals, 1)
        fit = slope * ts + intercept
        assert slope > 0.4
        assert np.max(np.abs(vals - fit)) / vals.mean() < 0.02
