"""Check that the CLI writes the same bytes as at another commit.

Usage::

    python3 scripts/cmp_outputs.py REF

Exports the committed files of REF (any commit-ish git accepts) into a
temporary directory with ``git archive``, runs one set of CLI calls on REF
and on this working tree, and compares every file each call writes, its
standard output, standard error and exit code included, byte for byte.
Lists every file that differs or exists on one side only, and exits 1 on any
difference, 0 when all are equal and 2 when REF cannot be exported.

The set: the ``evolve_q1`` and ``sweep_search`` benchmark commands at seeds
0 and 7, each at one and two workers, and ``sweep_search`` at seed 0 and
three workers; the C10 sweep at one and two workers; a 6,000-step noiseless
evolve, which crosses the renormalization guard at t = 1000; a q = 3
polygon-noise evolve with each split policy; a noisy ``search`` at seeds 0
and 7 and one and two workers; a q = 3 ``search`` under singleton polygon
splits; ``validate`` on the ``GridSpec(4, 1)`` cover and on a copy cut by one
polygon, input files that REF's package writes once for both sides; and two
usage errors that exit 2.  The whole set takes about a minute on a 2-CPU
host.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_EVOLVE_OUT = ("--out-dist", "dist.csv", "--out-std", "std.csv")


def _write_inputs(tree: Path, inputs: Path) -> None:
    """The graph and cover files of ``GridSpec(4, 1)``, written by ``tree``'s
    package, and a copy of the cover without its first polygon."""
    inputs.mkdir()
    script = (
        "import sys; from pathlib import Path; "
        "from sqwsim.graph import GridSpec, make_grid_of_cliques, write_cover, write_graph; "
        "tg = make_grid_of_cliques(GridSpec(4, 1)); "
        "Path(sys.argv[1]).write_text(write_graph(tg.graph)); Path(sys.argv[2]).write_text(write_cover(tg))"
    )
    subprocess.run([sys.executable, "-c", script, str(inputs / "grid.graph"), str(inputs / "grid.cover")],
                   env=dict(os.environ, PYTHONPATH=str(tree / "src")), check=True)
    cover = (inputs / "grid.cover").read_text().splitlines(keepends=True)
    (inputs / "cut.cover").write_text("".join(cover[1:]))


def _calls(inputs: Path) -> dict[str, list[str]]:
    calls = {}
    for seed in ("0", "7"):
        for workers in ("1", "2"):
            calls[f"evolve_q1_seed{seed}_w{workers}"] = [
                "evolve", "--n", "100", "--q", "1", "--steps", "100", "--runs", "16",
                "--noise", "vertices", "--p", "0.01", "--seed", seed, "--workers", workers, *_EVOLVE_OUT]
    # at three workers the pool's chunks of runs straddle combos unevenly
    for seed, workers in (("0", "1"), ("0", "2"), ("0", "3"), ("7", "1"), ("7", "2")):
        calls[f"sweep_search_seed{seed}_w{workers}"] = [
            "sweep", "--n-list", "10,20", "--q-list", "1,2,3", "--p-list", "0,0.01,0.1",
            "--noise", "polygons", "--split", "one_vs_rest", "--runs", "20",
            "--seed", seed, "--workers", workers, "--out", "sweep.csv"]
    for workers in ("1", "2"):
        calls[f"c10_sweep_w{workers}"] = [
            "sweep", "--n-list", "6,8", "--p-list", "0,0.05", "--noise", "polygons",
            "--split", "one_vs_rest", "--runs", "4", "--seed", "1010", "--workers", workers,
            "--out", "sweep.csv"]
    calls["evolve_renorm_guard"] = [
        "evolve", "--n", "4", "--steps", "6000", "--runs", "1", "--workers", "1", *_EVOLVE_OUT]
    for split in ("singletons", "one_vs_rest"):
        calls[f"evolve_q3_polygons_{split}"] = [
            "evolve", "--n", "20", "--q", "3", "--steps", "60", "--runs", "8", "--noise", "polygons",
            "--p", "0.05", "--split", split, "--seed", "3", "--workers", "1", *_EVOLVE_OUT]
    for seed in ("0", "7"):
        for workers in ("1", "2"):
            calls[f"search_seed{seed}_w{workers}"] = [
                "search", "--n", "10", "--q", "2", "--marked", "3,4", "--noise", "vertices", "--p", "0.02",
                "--runs", "8", "--seed", seed, "--workers", workers, "--out", "search.csv"]
    # polygon breaks patched onto the gathered blocks of a q = 3 partial cover
    calls["search_q3_polygons_singletons"] = [
        "search", "--n", "10", "--q", "3", "--noise", "polygons", "--p", "0.05", "--split", "singletons",
        "--runs", "6", "--seed", "2", "--workers", "1", "--out", "search.csv"]
    for cover in ("grid", "cut"):
        calls[f"validate_{cover}"] = [
            "validate", "--graph", str(inputs / "grid.graph"), "--cover", str(inputs / f"{cover}.cover")]
    calls["usage_missing_n"] = ["search", "--out", "search.csv"]
    calls["usage_zero_steps"] = ["evolve", "--n", "4", "--steps", "0", *_EVOLVE_OUT]
    return calls


def _run_all(tree: Path, outdir: Path, calls: dict[str, list[str]]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, argv in calls.items():
        cwd = outdir / name
        cwd.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "sqwsim.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, check=False)
        (cwd / "stdout.txt").write_bytes(proc.stdout + f"exit {proc.returncode}\n".encode())
        (cwd / "stderr.txt").write_bytes(proc.stderr)
        print(f"{outdir.name}: {name} exit {proc.returncode}", file=sys.stderr)


def _differences(left: Path, right: Path) -> list[str]:
    names = {p.relative_to(left) for p in left.rglob("*") if p.is_file()}
    names |= {p.relative_to(right) for p in right.rglob("*") if p.is_file()}
    differing = []
    for name in sorted(names):
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            differing.append(str(name))
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare this working tree against")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="cmp_outputs_"))
    try:
        ref_tree = work / "ref_tree"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref], capture_output=True, check=False)
        if archive.returncode:
            print(f"error: cannot export {args.ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        _write_inputs(ref_tree, work / "inputs")
        calls = _calls(work / "inputs")
        _run_all(ref_tree, work / "ref", calls)
        _run_all(ROOT, work / "tree", calls)
        differing = _differences(work / "ref", work / "tree")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(differing)} differing file(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
