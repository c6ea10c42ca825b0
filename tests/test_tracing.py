"""The benchmark's traced mode finds the walk by the names of the public step
functions: every walk step must be a span of ``noise.plan_step`` or of
``evolve.step``.  These tests run the benchmark's own tracer (read, not
changed) around small CLI runs and check that it sees every step and computes
every per-layer metric that BENCHMARK.json names."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import sqwsim.cli
from sqwsim.graph import GridSpec
from sqwsim.search import default_step_budget

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

_RUNS = 2
_STEPS = 3
_SEARCH_BUDGET = default_step_budget(GridSpec(4, 1))

CASES = {
    # every noisy run walks its own steps
    "evolve_vertices": (
        ["evolve", "--n", "4", "--steps", str(_STEPS), "--runs", str(_RUNS), "--noise", "vertices",
         "--p", "0.2", "--seed", "1", "--workers", "1", "--out-dist", "d.csv", "--out-std", "s.csv"],
        _RUNS * _STEPS,
    ),
    # p=0 walks one clean run and replicates it; p=0.1 walks every run
    "sweep_polygons": (
        ["sweep", "--n-list", "4", "--p-list", "0,0.1", "--noise", "polygons", "--split", "one_vs_rest",
         "--runs", str(_RUNS), "--seed", "1", "--workers", "1", "--out", "sweep.csv"],
        (1 + _RUNS) * _SEARCH_BUDGET,
    ),
}


def _traced_run(case, tmp_path, monkeypatch):
    argv = CASES[case][0]
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer(case)
    tracer.install()
    try:
        rc = sqwsim.cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.absent == []
    return tracer.spans


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracer_sees_every_walk_step(case, tmp_path, monkeypatch):
    walk_steps = CASES[case][1]
    spans = _traced_run(case, tmp_path, monkeypatch)
    metrics = tracing.layer_metrics(spans)
    computed = [name for name in PER_LAYER if name in metrics]
    assert "noise.plan_step_s.p50" in computed and "evolve.first_step_s" in computed
    assert [name for name in computed if metrics[name].value is None] == []
    # an annotation that raises is stored on its span, and its counts read 0
    assert [(s.name, s.attrs) for s in spans if "annotation_error" in s.attrs] == []
    assert metrics["noise.breaks_drawn"].value > 0
    assert metrics["evolve.steps"].value == walk_steps
    if case.startswith("sweep"):
        assert metrics["search.steps_simulated"].value == walk_steps
    # the graph enumerates its edges when the tracer reads their count, after
    # the build: 16 cells of 6 edges and 32 links of 1 cross edge per build
    builds = [s for s in spans if s.name == "graph.make_grid_of_cliques"]
    assert builds and metrics["graph.edges"].value == 128 * len(builds)


@pytest.mark.parametrize("case", sorted(CASES))
def test_noisy_kernel_is_charged_to_evolve_step(case, tmp_path, monkeypatch):
    # every step, clean or under a plan, runs the kernel inside one
    # evolve.step span, so the layer shares charge it to evolve, not noise
    spans = _traced_run(case, tmp_path, monkeypatch)
    plan_steps = [i for i, s in enumerate(spans) if s.name == "noise.plan_step"]
    assert plan_steps
    for i in plan_steps:
        assert [s.name for s in spans if s.parent == i] == ["evolve.step"]
