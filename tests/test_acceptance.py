"""Acceptance suite: one test per criterion, tolerances pinned.

Each test name carries its criterion id (c01..c10); the conftest summary
hook prints one PASS/FAIL line per criterion at the end of the session.
Stated runtime budgets are asserted inside the tests.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_cover, random_state, reflect as apply_tessellation
from sqwsim.analysis import aggregate, check_dihedral_symmetry, displacement_experiment
from sqwsim.cli import main
from sqwsim.evolve import WalkState, step, uniform_state
from sqwsim.graph import GridSpec, make_grid_of_cliques
from sqwsim.noise import NoiseSpec, plan_step, sample_plan
from sqwsim.oracle import apply_plan, dense_step_matrix, remove_vertices, verify_equivalence
from sqwsim.search import SearchConfig, partial_cover, peak_metrics, run_search, success_probability


def test_c01_reflection_algebra_on_random_covers():
    started = time.time()
    rng = np.random.default_rng(101)
    for _ in range(50):
        num_vertices = int(rng.integers(2, 65))
        num_tessellations = int(rng.integers(1, 4))
        tg = random_cover(rng, num_vertices, num_tessellations)
        state = WalkState(random_state(rng, num_vertices))
        for tess in tg.tessellations:
            twice = apply_tessellation(tess, apply_tessellation(tess, state))
            assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12
        stepped = step(tg, state)
        assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) <= 1e-12
    assert time.time() - started < 5.0


def test_c02_dense_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(102)
    covers = []
    for n, q in ((2, 1), (3, 1), (2, 2)):
        tg = make_grid_of_cliques(GridSpec(n, q))
        covers.append(tg)
        covers.append(partial_cover(tg, (0, 0)))
        drop = rng.choice(tg.num_vertices, size=3, replace=False)
        covers.append(remove_vertices(tg, drop.tolist()))
        for split in ("singletons", "one_vs_rest"):
            ns = NoiseSpec(kind="break_polygons", p=0.5, split_policy=split)
            covers.append(apply_plan(tg, sample_plan(tg, ns, rng)))
    for cover in covers:
        dense = dense_step_matrix(cover).entries
        for _ in range(5):
            state = WalkState(random_state(rng, cover.num_vertices))
            sparse = step(cover, state).amplitudes
            assert np.max(np.abs(dense @ state.amplitudes - sparse)) <= 1e-12
    assert time.time() - started < 10.0


def test_c03_coined_walk_equivalence():
    started = time.time()
    for n in (2, 3, 4, 5):
        assert verify_equivalence(n, 20) < 1e-10
        assert verify_equivalence(n, 20, marked=(0, 0)) < 1e-10
    assert time.time() - started < 30.0


def test_c04_noiseless_spread_symmetry_and_ballistic_sigma():
    started = time.time()
    result = displacement_experiment(GridSpec(100, 1), 50)
    assert check_dihedral_symmetry(result.mean_distribution, (0, 0)) < 1e-10
    classical = result.classical_sigma[50]
    assert abs(classical - math.sqrt(50)) < 1e-9
    assert result.sigma.mean[50] > 3.0 * classical
    assert time.time() - started < 60.0


def test_c05_noise_suppresses_spread_ordered_in_p():
    started = time.time()
    spec = GridSpec(100, 1)
    steps = 100
    runs = 100
    noiseless = displacement_experiment(spec, steps, runs=runs, master_seed=1005)
    for kind in ("break_vertices", "break_polygons"):
        rows = [(noiseless.sigma.mean[steps], noiseless.sigma.ci_halfwidth[steps])]
        for p in (0.001, 0.01, 0.1):
            res = displacement_experiment(
                spec, steps, noise=NoiseSpec(kind=kind, p=p), runs=runs, master_seed=1005
            )
            rows.append((res.sigma.mean[steps], res.sigma.ci_halfwidth[steps]))
        for (hi_mean, hi_ci), (lo_mean, lo_ci) in zip(rows, rows[1:]):
            assert hi_mean > lo_mean, (kind, rows)
            assert hi_mean - hi_ci > lo_mean + lo_ci, (kind, rows)
    assert time.time() - started < 900.0


def test_c06_noiseless_search_scaling_in_n():
    started = time.time()
    widths = (10, 20, 30, 40, 50)
    peaks = []
    scaled_peaks = []
    scaled_times = []
    for n in widths:
        cfg = SearchConfig(spec=GridSpec(n, 1), master_seed=1006)
        series = run_search(cfg)[0].probabilities
        summary = peak_metrics(series)
        log_cells = math.log(n * n)
        peaks.append(summary.p_peak)
        scaled_peaks.append(summary.p_peak * log_cells)
        scaled_times.append(summary.running_time / (n * log_cells))
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    assert max(scaled_peaks) / min(scaled_peaks) < 2.0
    assert max(scaled_times) / min(scaled_times) < 1.5

    # independent dense-matrix recomputation of the n=10 curve
    spec = GridSpec(10, 1)
    cfg = SearchConfig(spec=spec, master_seed=1006)
    series = run_search(cfg)[0].probabilities
    part = partial_cover(make_grid_of_cliques(spec), (0, 0))
    dense = dense_step_matrix(part).entries
    psi = uniform_state(spec.num_vertices).amplitudes.copy()
    reference = [success_probability(WalkState(psi), spec, (0, 0))]
    for _ in range(cfg.max_steps):
        psi = dense @ psi
        reference.append(float(np.sum(np.abs(psi[:4]) ** 2)))
    assert abs(peak_metrics(series).p_peak - peak_metrics(np.array(reference)).p_peak) <= 1e-10
    assert time.time() - started < 300.0


def _peak_stats(series_list):
    peaks = np.array([float(s.probabilities.max()) for s in series_list])
    ci = 1.96 * peaks.std(ddof=1) / math.sqrt(peaks.size) if peaks.size > 1 else 0.0
    return float(peaks.mean()), float(ci)


def test_c07_noise_degrades_search_ordered_in_p():
    started = time.time()
    spec = GridSpec(20, 1)
    base = run_search(SearchConfig(spec=spec, runs=100, master_seed=1007))
    base_mean, base_ci = _peak_stats(base)
    for kind in ("break_vertices", "break_polygons"):
        rows = [(base_mean, base_ci)]
        for p in (0.001, 0.01, 0.1):
            cfg = SearchConfig(spec=spec, noise=NoiseSpec(kind=kind, p=p), runs=100, master_seed=1007)
            rows.append(_peak_stats(run_search(cfg)))
        means = [m for m, _ in rows]
        assert all(a > b for a, b in zip(means, means[1:])), (kind, rows)
        # p = 0 and p = 0.1 must be separated beyond both intervals
        assert rows[0][0] - rows[0][1] > rows[-1][0] + rows[-1][1], (kind, rows)
    assert time.time() - started < 600.0


def test_c08_one_vs_rest_softens_with_q():
    started = time.time()
    noise = NoiseSpec(kind="break_polygons", p=0.01, split_policy="one_vs_rest")
    means = []
    rt_distance = {}
    for q in (1, 2, 3):
        spec = GridSpec(20, q)
        noisy = run_search(SearchConfig(spec=spec, noise=noise, runs=100, master_seed=1008))
        mean_peak, _ = _peak_stats(noisy)
        means.append(mean_peak)
        noisy_rt = peak_metrics(aggregate([s.probabilities for s in noisy]).mean).running_time
        clean = run_search(SearchConfig(spec=spec, master_seed=1008))[0].probabilities
        clean_rt = peak_metrics(clean).running_time
        rt_distance[q] = abs(noisy_rt - clean_rt)
    assert means[0] < means[1] < means[2], means
    assert rt_distance[3] < rt_distance[1], rt_distance
    assert time.time() - started < 900.0


def test_c09_noise_plumbing_identity_magnitudes_break_rate():
    # (a) p = 0 perturbed evolution is bit-for-bit the noiseless one
    spec = GridSpec(6, 1)
    tg = make_grid_of_cliques(spec)
    rng = np.random.default_rng(109)
    state = WalkState(random_state(rng, spec.num_vertices))
    for kind in ("break_vertices", "break_polygons"):
        off = NoiseSpec(kind=kind, p=0.0)
        a = plan_step(sample_plan(tg, off, np.random.default_rng(0)), state)
        b = step(tg, state)
        assert a._amps.tobytes() == b._amps.tobytes()
    for noise in (NoiseSpec(kind="break_vertices", p=0.0), NoiseSpec()):
        series = run_search(SearchConfig(spec=spec, noise=noise, runs=3, master_seed=9))
        baseline = run_search(SearchConfig(spec=spec, runs=3, master_seed=9))
        for got, want in zip(series, baseline):
            assert np.array_equal(got.probabilities, want.probabilities)

    # (b) magnitudes of broken vertices survive one two-tessellation step
    noise = NoiseSpec(kind="break_vertices", p=0.25)
    found = 0
    for trial in range(20):
        plan = sample_plan(tg, noise, np.random.default_rng(500 + trial))
        broken = plan.broken_vertices
        if broken.size == 0:
            continue
        found += 1
        out = plan_step(plan, state)
        dev = np.abs(np.abs(out.amplitudes[broken]) - np.abs(state.amplitudes[broken]))
        assert np.max(dev) <= 1e-12
    assert found > 0

    # (c) empirical break rate sits inside the binomial 99% interval
    p = 0.3
    total = 10_000
    per_plan = tg.num_vertices
    plans = total // per_plan + 1
    rate_rng = np.random.default_rng(1009)
    hits = 0
    seen = 0
    for _ in range(plans):
        plan = sample_plan(tg, NoiseSpec(kind="break_vertices", p=p), rate_rng)
        hits += plan.broken_vertices.size
        seen += per_plan
    assert seen >= total
    rate = hits / seen
    half = 2.576 * math.sqrt(p * (1 - p) / seen)
    assert abs(rate - p) <= half, (rate, half)


def test_c10_sweep_byte_determinism(tmp_path):
    args = [
        "sweep",
        "--n-list", "6,8",
        "--p-list", "0,0.05",
        "--noise", "polygons",
        "--split", "one_vs_rest",
        "--runs", "4",
        "--seed", "1010",
    ]
    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "3")):
        path = tmp_path / f"sweep_{tag}.csv"
        rc = main(args + ["--workers", workers, "--out", str(path)])
        assert rc == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
