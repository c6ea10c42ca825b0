"""The benchmark's workloads: CLI calls, inputs made from the seed, output checks.

Each workload names the ``sqwsim`` CLI calls of one iteration, the fresh-process
set-up probe that measures ``setup_s``, and the checks its outputs must pass:

* at the reference seed, every numeric CSV field against the reference recorded
  in ``perfbench/reference`` (manifest lines exactly);
* at any seed, the seed-independent fields against that reference and the
  invariants of the output (probabilities, sums, the validate report).

Byte identity across repeats and worker counts is checked by ``run.py``.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: Seed at which the reference outputs were recorded (the CLI's default seed).
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Admits summation-order round-off, fails any wrong kernel by many orders.
RTOL = 1e-9
ATOL = 1e-14
#: Half-widths of the 95% CI by which a noisy mean may differ from the reference.
ENVELOPE_CI = 5.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments after ``sqwsim``, files it writes, exit code."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    expect_rc: int = 0


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= RTOL * abs(ref) + ATOL


def _manifest(lines: list[str], drop: tuple[str, ...] = ()) -> list[str]:
    return [line for line in lines if line.startswith("#") and not line.startswith(drop)]


def _rows(lines: list[str]) -> list[list[str]]:
    return [line.split(",") for line in lines if not line.startswith("#")]


def compare_fields(got: list[str], ref: list[str], what: str) -> list[str]:
    """Field-by-field comparison of two CSV rows: numbers within tolerance, text exactly."""
    if len(got) != len(ref):
        return [f"{what}: {len(got)} fields, reference has {len(ref)}"]
    errors = []
    for i, (g, r) in enumerate(zip(got, ref)):
        gv, rv = _float(g), _float(r)
        if gv is None or rv is None:
            if g != r:
                errors.append(f"{what} field {i}: {g!r} != {r!r}")
        elif not _close(gv, rv):
            errors.append(f"{what} field {i}: {g} differs from reference {r}")
    return errors


def compare_csv(got: list[str], ref: list[str], what: str) -> list[str]:
    """Whole-file comparison: manifest and comment lines exactly, numbers within tolerance."""
    if len(got) != len(ref):
        return [f"{what}: {len(got)} lines, reference has {len(ref)}"]
    errors = []
    for k, (g, r) in enumerate(zip(got, ref), start=1):
        if r.startswith("#") or g.startswith("#"):
            if g != r:
                errors.append(f"{what} line {k}: {g[:80]!r} != {r[:80]!r}")
        else:
            errors.extend(compare_fields(g.split(","), r.split(","), f"{what} line {k}"))
    return errors[:20]


def _reference(name: str) -> list[str]:
    return (REFERENCE_DIR / name).read_text(encoding="utf-8").splitlines()


def _lines(outputs: dict[str, bytes], name: str) -> list[str]:
    return outputs[name].decode("utf-8").splitlines()


class EvolveQ1:
    """The spreading experiment at N = 40,000: masked kernel, vertex noise, observables."""

    name = "evolve_q1"
    has_reference = True
    n, q, steps, runs, p = 100, 1, 100, 16, 0.01
    vertex_steps = runs * steps * 4 * q * n * n
    #: Timed with one worker: with two, both workers' spinning BLAS threads share
    #: two CPUs and one iteration ranges 8.6-16.5 s, wider than any bound allows.
    #: The two-worker run is made untimed, for the byte comparison.
    timed_workers = 1

    def _argv(self, seed: int, workers: int, steps: int, runs: int, tag: str) -> tuple[str, ...]:
        return ("evolve", "--n", str(self.n), "--q", str(self.q), "--steps", str(steps),
                "--runs", str(runs), "--noise", "vertices", "--p", str(self.p),
                "--workers", str(workers), "--seed", str(seed),
                "--out-dist", f"{tag}dist.csv", "--out-std", f"{tag}std.csv")

    def prepare(self, workdir: Path, seed: int) -> None:
        pass

    def calls(self, seed: int, workers: int) -> list[Call]:
        return [Call(self._argv(seed, workers, self.steps, self.runs, ""), ("dist.csv", "std.csv"))]

    def setup_command(self, seed: int) -> list[str]:
        """Interpreter start, import, cover build and one (compiling) step: one run, one step."""
        return ["-m", "sqwsim.cli", *self._argv(seed, 1, 1, 1, "setup_")]

    def check(self, outputs: dict[str, bytes], seed: int) -> list[str]:
        dist, std = _lines(outputs, "dist.csv"), _lines(outputs, "std.csv")
        ref_dist, ref_std = _reference("evolve_q1_dist.csv"), _reference("evolve_q1_std.csv")
        if seed == REFERENCE_SEED:
            return compare_csv(dist, ref_dist, "dist.csv") + compare_csv(std, ref_std, "std.csv")

        errors = []
        seeded = ("# master_seed:", "# run_seeds:")
        for name, got, ref in (("dist.csv", dist, ref_dist), ("std.csv", std, ref_std)):
            if _manifest(got, seeded) != _manifest(ref, seeded):
                errors.append(f"{name}: manifest differs from the reference beyond its seeds")
        probs = [float(v) for row in _rows(dist) for v in row]
        if len(probs) != self.n * self.n or min(probs) < 0.0:
            errors.append("dist.csv: not an n x n table of non-negative probabilities")
        elif abs(math.fsum(probs) - 1.0) > 1e-10:
            errors.append(f"dist.csv: probabilities sum to {math.fsum(probs)!r}")
        rows, ref_rows = _rows(std)[1:], _rows(ref_std)[1:]
        if len(rows) != self.steps + 1:
            return errors + [f"std.csv: {len(rows)} data rows, expected {self.steps + 1}"]
        for row, ref in zip(rows, ref_rows):
            # step and classical_sigma do not depend on the seed.
            errors.extend(compare_fields([row[0], row[3]], [ref[0], ref[3]], f"std.csv step {row[0]}"))
            if float(row[2]) < 0.0:
                errors.append(f"std.csv step {row[0]}: negative CI half-width")
        if float(rows[0][1]) != 0.0:
            errors.append("std.csv: sigma at step 0 is not 0")
        errors.extend(_envelope(rows[-1][1:3], ref_rows[-1][1:3], "std.csv final sigma"))
        return errors


def _envelope(got: list[str], ref: list[str], what: str) -> list[str]:
    """A noisy mean against the reference mean, within ENVELOPE_CI combined CI half-widths."""
    mean, ci = float(got[0]), float(got[1])
    ref_mean, ref_ci = float(ref[0]), float(ref[1])
    limit = ENVELOPE_CI * math.hypot(ci, ref_ci) + ATOL
    if abs(mean - ref_mean) > limit:
        return [f"{what}: {mean} is {abs(mean - ref_mean):.3g} from reference {ref_mean} (limit {limit:.3g})"]
    return []


class SweepSearch:
    """18 small partial-cover searches: per-call overhead, builds, pools, aggregation."""

    name = "sweep_search"
    has_reference = True
    n_list, q_list, p_list, runs = (10, 20), (1, 2, 3), ("0", "0.01", "0.1"), 20
    timed_workers = 2

    @property
    def combos(self) -> list[tuple[int, int, int]]:
        """(n, q, step budget) of every combo; the budget is ceil(1.5 sqrt(N ln N)), N = n^2."""
        return [(n, q, math.ceil(1.5 * math.sqrt(n * n * math.log(n * n))))
                for n in self.n_list for q in self.q_list for _ in self.p_list]

    @property
    def vertex_steps(self) -> int:
        return self.runs * sum(steps * 4 * q * n * n for n, q, steps in self.combos)

    @property
    def steps_requested(self) -> int:
        return self.runs * sum(steps for _, _, steps in self.combos)

    def _argv(self, seed: int, workers: int, runs: int, out: str, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
        return ("sweep", "--n-list", ",".join(map(str, self.n_list)),
                "--q-list", ",".join(map(str, self.q_list)), "--p-list", ",".join(self.p_list),
                "--noise", "polygons", "--split", "one_vs_rest", "--runs", str(runs),
                "--workers", str(workers), "--seed", str(seed), "--out", out, *extra)

    def prepare(self, workdir: Path, seed: int) -> None:
        pass

    def calls(self, seed: int, workers: int) -> list[Call]:
        return [Call(self._argv(seed, workers, self.runs, "sweep.csv"), ("sweep.csv",))]

    def setup_command(self, seed: int) -> list[str]:
        """Every combo's cover build, partial cover and one (compiling) step: one run, one step."""
        return ["-m", "sqwsim.cli", *self._argv(seed, 1, 1, "setup_sweep.csv", ("--steps-factor", "1e-9"))]

    def check(self, outputs: dict[str, bytes], seed: int) -> list[str]:
        got, ref = _lines(outputs, "sweep.csv"), _reference("sweep_search.csv")
        if len(got) != len(ref):
            return [f"sweep.csv: {len(got)} lines, reference has {len(ref)}"]
        errors = []
        if seed == REFERENCE_SEED:
            if _manifest(got) != _manifest(ref):
                errors.append("sweep.csv: manifest differs from the reference")
        elif _manifest(got, ("# master_seed:", "# combo[")) != _manifest(ref, ("# master_seed:", "# combo[")):
            errors.append("sweep.csv: manifest differs from the reference beyond its seeds")
        rows, ref_rows = _rows(got), _rows(ref)
        if rows[0] != ref_rows[0]:
            errors.append(f"sweep.csv: header {rows[0]} != {ref_rows[0]}")
        for row, ref_row in zip(rows[1:], ref_rows[1:]):
            what = f"sweep.csv row n={row[0]},q={row[1]},p={row[2]}"
            if not 0.0 <= float(row[3]) <= 1.0:
                errors.append(f"{what}: mean_p_peak {row[3]} is not a probability")
            if seed == REFERENCE_SEED or float(ref_row[2]) == 0.0:
                # Noiseless combos do not depend on the seed.
                errors.extend(compare_fields(row[:5], ref_row[:5], what))
                errors.extend(_peak_step(row[5:], ref_row[5:], what))
            else:
                errors.extend(compare_fields(row[:3], ref_row[:3], what))
                errors.extend(_envelope(row[3:5], ref_row[3:5], f"{what} mean_p_peak"))
        return errors


def _peak_step(got: list[str], ref: list[str], what: str) -> list[str]:
    """t_peak and running_time = t_peak / sqrt(p_peak) against the reference.

    Noiseless search curves take equal values at consecutive steps, so round-off
    decides which of the pair argmax picks: t_peak may move by one step as long
    as p_peak (running_time / t_peak) is unchanged.
    """
    t, ref_t = int(got[0]), int(ref[0])
    if abs(t - ref_t) > 1:
        return [f"{what}: t_peak {t} != reference {ref_t}"]
    if not _close(float(got[1]) / t, float(ref[1]) / ref_t):
        return [f"{what}: running_time {got[1]} at t_peak {t} disagrees with reference {ref[1]} at {ref_t}"]
    return []


class ValidateFiles:
    """Reading and validating stored edges: GridSpec(60, 3), valid and one cell cut."""

    name = "validate_files"
    #: The expected report follows from the seed, so every seed is checked exactly.
    has_reference = False
    n, q = 60, 3
    vertex_steps = None
    #: validate takes no --workers flag.
    timed_workers = None

    def cut_cell(self, seed: int) -> tuple[int, int]:
        rng = random.Random(seed)
        return rng.randrange(self.n), rng.randrange(self.n)

    def prepare(self, workdir: Path, seed: int) -> None:
        from sqwsim import GridSpec, make_grid_of_cliques, partial_cover, write_cover, write_graph

        tg = make_grid_of_cliques(GridSpec(self.n, self.q))
        (workdir / "graph.txt").write_text(write_graph(tg.graph), encoding="utf-8")
        (workdir / "cover.txt").write_text(write_cover(tg), encoding="utf-8")
        cut = partial_cover(tg, self.cut_cell(seed))
        (workdir / "cut.txt").write_text(write_cover(cut), encoding="utf-8")

    def calls(self, seed: int, workers: int | None) -> list[Call]:
        return [Call(("validate", "--graph", "graph.txt", "--cover", "cover.txt")),
                Call(("validate", "--graph", "graph.txt", "--cover", "cut.txt"), expect_rc=1)]

    def setup_command(self, seed: int) -> list[str]:
        """Interpreter start, import, and reading the graph and cover of both validate calls."""
        return ["-c", "from pathlib import Path\n"
                      "from sqwsim import read_cover, read_graph\n"
                      "for cover in ('cover.txt', 'cut.txt'):\n"
                      "    g = read_graph(Path('graph.txt').read_text(encoding='utf-8'))\n"
                      "    read_cover(Path(cover).read_text(encoding='utf-8'), g)\n"]

    def expected_cut(self, seed: int) -> tuple[set[int], set[tuple[int, int]]]:
        """The removed cell's vertices, and its edges no link clique covers.

        Each q-slot block of a cell lies in one link clique, so exactly the cell
        edges between different blocks lose their only covering polygon.
        """
        x, y = self.cut_cell(seed)
        size = 4 * self.q
        base = (x * self.n + y) * size
        verts = set(range(base, base + size))
        edges = {(base + i, base + j) for i in range(size) for j in range(i + 1, size)
                 if i // self.q != j // self.q}
        return verts, edges

    def check(self, outputs: dict[str, bytes], seed: int) -> list[str]:
        errors = []
        valid = outputs["call0.stdout"].decode("utf-8")
        if not valid.rstrip("\n").endswith("cover valid: yes") or "FAIL" in valid:
            errors.append("validate on the valid cover did not report it valid")
        report = outputs["call1.stdout"].decode("utf-8")
        verts = {int(v) for v, t in re.findall(r"vertex (\d+) uncovered in tessellation (\d+)", report)
                 if t == "0"}
        edges = {(int(u), int(v)) for u, v in re.findall(r"edge \((\d+), (\d+)\) not inside", report)}
        want_verts, want_edges = self.expected_cut(seed)
        if verts != want_verts:
            errors.append(f"cut cover: uncovered vertices {sorted(verts)[:12]} != {sorted(want_verts)}")
        if edges != want_edges:
            errors.append(f"cut cover: {len(edges)} uncovered edges reported, expected {len(want_edges)}")
        listed = len(re.findall(r"^  ", report, flags=re.M))
        if listed != len(want_verts) + len(want_edges):
            errors.append(f"cut cover: {listed} violations listed, expected {len(want_verts) + len(want_edges)}")
        if not report.rstrip("\n").endswith("cover valid: NO"):
            errors.append("validate on the cut cover did not report it invalid")
        return errors


WORKLOADS = {w.name: w for w in (EvolveQ1(), SweepSearch(), ValidateFiles())}
