"""Benchmark of the sqwsim CLI: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve_q1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

With ``--trace 0`` each iteration runs the workload's CLI calls as subprocesses,
one at a time, and the run reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` it runs the same calls in this process with
``--workers 1``, traced (every layer function wrapped) between two untraced
runs, and reports the per-layer metrics.  Every output is checked; the last line of
standard output is one JSON object with the result.

The benchmark sets no thread-count environment variable: the CLI runs with the
environment it was given, which the run records.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

from tracing import Metric, Tracer, layer_metrics, tail  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Call  # noqa: E402

#: Fresh-process set-up probes per run; their median is setup_s.
SETUP_PROBES = 3
#: Every run ends within this many seconds; subprocess timeouts shrink to fit.
RUN_BUDGET_S = 170.0
#: The thread-count variables recorded as found (none is ever set here).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stdout: bytes


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class Run:
    """One benchmark invocation on one workload: counts operations and keeps the deadline."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.w, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
        return not errors

    def spawn(self, args: list[str]) -> Proc:
        """Run ``python3 args`` in the work dir; wall, CPU and peak RSS of its process tree."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.workdir / "stdout.bin", "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.workdir, env=env,
                                    stdout=out, stderr=err, start_new_session=True)
            killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the child plus every descendant it reaped (the fork pool).
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
                    (self.workdir / "stdout.bin").read_bytes())

    def iteration(self, calls: list[Call]) -> Iteration:
        it = Iteration()
        for i, call in enumerate(calls):
            for name in call.outputs:
                (self.workdir / name).unlink(missing_ok=True)
            proc = self.spawn(["-m", "sqwsim.cli", *call.argv])
            it.wall_s += proc.wall_s
            it.cpu_s += proc.cpu_s
            it.rss_mb = max(it.rss_mb, proc.rss_mb)
            if proc.rc != call.expect_rc:
                stderr = (self.workdir / "stderr.txt").read_text(errors="replace").strip()[-300:]
                it.errors.append(f"{call.argv[0]} exited {proc.rc}, expected {call.expect_rc}: {stderr}")
            it.outputs[f"call{i}.stdout"] = proc.stdout
            for name in call.outputs:
                path = self.workdir / name
                if path.is_file():
                    it.outputs[name] = path.read_bytes()
                else:
                    it.errors.append(f"{name} was not written")
        return it

    def setup_probe(self) -> float | None:
        proc = self.spawn(self.w.setup_command(self.seed))
        ok = self.record("set-up probe", [] if proc.rc == 0 else [f"exited {proc.rc}"])
        return proc.wall_s if ok else None

    def checked(self, what: str, it: Iteration, reference: Iteration | None, seed: int | None = None) -> bool:
        """Exit codes, then outputs: checked on their own, or byte-compared with ``reference``."""
        errors = list(it.errors)
        if not errors:
            if reference is None:
                errors = self.w.check(it.outputs, self.seed if seed is None else seed)
            elif it.outputs != reference.outputs:
                differ = sorted(k for k in it.outputs.keys() | reference.outputs.keys()
                                if it.outputs.get(k) != reference.outputs.get(k))
                errors = [f"outputs not byte-identical to the first iteration: {', '.join(differ)}"]
        return self.record(what, errors)


def median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values) if values else None, "unit": unit, "samples": len(values),
            "values": values}


def run_untraced(run: Run) -> dict:
    """End-to-end metrics: set-up probes, timed iterations, untimed output checks."""
    w = run.w
    iterations: list[Iteration] = []
    first_good: Iteration | None = None
    other: dict[int, Iteration] = {}

    def worker_count_check():
        # The README promises identical bytes for any worker count.
        if w.timed_workers is not None and first_good is not None:
            workers = 2 if w.timed_workers == 1 else 1
            other[workers] = run.iteration(w.calls(run.seed, workers))
            run.checked(f"--workers {workers} against --workers {w.timed_workers}", other[workers], first_good)

    def reference_check():
        # Only the reference seed's outputs are known to the last digit, and the
        # statistical checks miss a walk that is wrong but nearly equivalent.
        if w.has_reference and run.seed != REFERENCE_SEED:
            ref = run.iteration(w.calls(REFERENCE_SEED, w.timed_workers))
            run.checked(f"reference seed {REFERENCE_SEED}", ref, None, seed=REFERENCE_SEED)

    # The untimed checks and the set-up probes are spread between the timed
    # iterations, and the checks' time does not count against --seconds.  The
    # samples then span the whole run, so slow spells of the host weigh on every
    # metric alike.
    checks = [worker_count_check, reference_check]
    start = time.perf_counter()
    untimed = 0.0
    setups = [run.setup_probe()]
    while not iterations or (time.perf_counter() - start - untimed < run.seconds
                             and time.perf_counter() < run.deadline - 60):
        it = run.iteration(w.calls(run.seed, w.timed_workers))
        iterations.append(it)
        if run.checked(f"iteration {len(iterations)}", it, first_good) and first_good is None:
            first_good = it
        if checks:
            t = time.perf_counter()
            checks.pop(0)()
            untimed += time.perf_counter() - t
        done = (time.perf_counter() - start - untimed) / run.seconds
        if len(setups) < min(SETUP_PROBES, SETUP_PROBES * done):
            setups.append(run.setup_probe())
    for check in checks:
        check()
    while len(setups) < SETUP_PROBES:
        setups.append(run.setup_probe())
    setups = [s for s in setups if s is not None]

    walls = [it.wall_s for it in iterations]
    metrics = {
        "wall_s": {**median_metric(walls, "s"), "tail": tail(walls)},
        "setup_s": median_metric(setups, "s"),
        "cpu_s": median_metric([it.cpu_s for it in iterations], "s"),
        "peak_rss_mb": median_metric([it.rss_mb for it in iterations], "MB"),
    }
    if w.vertex_steps:
        metrics["vertex_steps_per_s"] = {"value": w.vertex_steps / metrics["wall_s"]["value"],
                                         "unit": "1/s", "samples": len(walls)}
    metrics["failed_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio",
                               "samples": run.attempted}
    for workers, it in other.items():
        note = "untimed worker-count check run, not gated"
        metrics[f"workers{workers}.wall_s"] = {"value": it.wall_s, "unit": "s", "samples": 1, "note": note}
        metrics[f"workers{workers}.cpu_s"] = {"value": it.cpu_s, "unit": "s", "samples": 1, "note": note}
    return metrics


def run_in_process(run: Run, tracer: Tracer | None) -> Iteration:
    """The workload's calls through ``sqwsim.cli.main`` in this process, with ``--workers 1``."""
    import sqwsim.cli

    it = Iteration()
    cwd = Path.cwd()
    os.chdir(run.workdir)
    try:
        if tracer is not None:
            tracer.install()
        for i, call in enumerate(run.w.calls(run.seed, 1)):
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                rc = sqwsim.cli.main(list(call.argv))
            it.wall_s += time.perf_counter() - start
            if rc != call.expect_rc:
                it.errors.append(f"{call.argv[0]} returned {rc}, expected {call.expect_rc}")
            it.outputs[f"call{i}.stdout"] = buffer.getvalue().encode("utf-8")
            for name in call.outputs:
                it.outputs[name] = Path(name).read_bytes()
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return it


def run_traced(run: Run) -> tuple[dict, list]:
    """Per-layer metrics from traced in-process runs, against one untraced CLI run."""
    w = run.w
    # The pool's efficiency is judged on the two-worker CLI run.
    cli = run.iteration(w.calls(run.seed, 2))
    run.checked("untraced CLI run", cli, None)
    setup_s = run.setup_probe() if w.timed_workers is not None else None

    per_repeat: list[dict[str, Metric]] = []
    spans: list = []
    absent: list[str] = []
    end = time.perf_counter() + run.seconds
    while not per_repeat or (time.perf_counter() < end and time.perf_counter() < run.deadline - 60):
        repeat = len(per_repeat)
        tracer = Tracer(f"{w.name}-seed{run.seed}-{repeat}")
        # The traced run sits between two untraced ones, so warm-up and drift cancel.
        before = run_in_process(run, None)
        traced = run_in_process(run, tracer)
        after = run_in_process(run, None)
        for what, it in (("untraced", before), ("traced", traced), ("untraced", after)):
            run.checked(f"{what} in-process run {repeat}", it, cli)
        plain_s = (before.wall_s + after.wall_s) / 2
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead"] = Metric(100.0 * (traced.wall_s - plain_s) / plain_s, "%",
                                           "traced over mean untraced in-process time, minus 1")
        metrics["cli.output_bytes"] = Metric(sum(len(v) for v in traced.outputs.values()), "B",
                                             "files written and standard output")
        if setup_s is not None:
            busy = 2 * (cli.wall_s - setup_s)
            metrics["pool.efficiency"] = Metric(metrics["pool.run_s"].value / busy, "ratio",
                                                "traced run time / (2 workers x (wall_s - setup_s))")
        per_repeat.append(metrics)
        spans.extend(tracer.spans)
        absent = tracer.absent

    result = {}
    unstable = []
    for name, first in per_repeat[0].items():
        values = [m[name].value for m in per_repeat]
        entry = {"value": None, "unit": first.unit, "samples": len(values), "note": first.note}
        if first.unit in ("count", "B"):
            entry["value"] = values[0]
            if len(set(values)) > 1:
                unstable.append(f"{name} varies across repeats: {values}")
        elif None not in values:
            entry["value"] = statistics.median(values)
        result[name] = entry
    run.record("counts repeat exactly across traced runs", unstable)
    result["absent"] = absent
    return result, spans


def environment() -> dict:
    """Where the numbers come from: revision, interpreter, numpy and BLAS, CPUs, thread settings."""
    import numpy

    rev = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqwsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError, AttributeError):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(name: str, seed: int, metrics: dict, run: Run) -> None:
    print(f"workload {name}, seed {seed}: {run.attempted} operations, {run.failed} failed")
    for key, m in metrics.items():
        if key == "absent":
            continue
        extra = f"  ({m['note']})" if m.get("note") else ""
        tl = m.get("tail")
        if key == "wall_s":
            extra = (f"  tail p{tl[0]:g} = {tl[1]:.6g} s" if tl else
                     "  tail: n/a, fewer than 11 samples")
        print(f"  {key:38s} {_fmt(m['value']):>14s} {m['unit']:6s} n={m['samples']}{extra}")
    if metrics.get("absent"):
        print(f"  absent in this commit: {', '.join(metrics['absent'])}")
    for line in run.errors[:40]:
        print(f"  FAILED {line}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple[dict, Run]:
    w = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(w, seed, seconds, workdir)
    try:
        w.prepare(workdir, seed)
        if trace:
            metrics, spans = run_traced(run)
            (OUT / f"{name}-seed{seed}-spans.json").write_text(json.dumps(
                [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                  "trace_id": s.trace_id, **({"attrs": s.attrs} if s.attrs else {})} for s in spans]))
        else:
            metrics = run_untraced(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "trace": trace, "environment": env, "metrics": metrics,
         "attempted": run.attempted, "failed": run.failed, "errors": run.errors}, indent=1, default=str))
    report(name, seed, metrics, run)
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqwsim" / "__init__.py").is_file():
        print(f"error: no sqwsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        metrics, run = run_workload(name, args.seed, seconds, bool(args.trace), env)
        attempted += run.attempted
        failed += run.failed
        for m in wanted:
            value = metrics.get(m["name"], {}).get("value")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            result_metrics[key] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
