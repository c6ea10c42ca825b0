"""Command-line driver with byte-reproducible CSV outputs.

Every output starts with a '#'-prefixed manifest (package version, command,
parameters, master seed, per-run child seeds).  Runs are aggregated in run
index order and floats rendered with 17 significant digits, so two
invocations with equal manifests produce byte-identical files regardless of
worker count.

Exit codes: 0 success, 1 failed validation, 2 bad input, 3 broken internal
invariant.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import aggregate, displacement_experiment
from .evolve import InvariantError
from .graph import GridSpec, ParseError, read_cover, read_graph, validate_cover
from .noise import NoiseSpec
from .rng import child_seed
from .search import SearchConfig, SuccessSeries, _run_searches, default_step_budget, peak_metrics, run_search

_KIND_BY_FLAG = {"none": "none", "vertices": "break_vertices", "polygons": "break_polygons"}


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like 'x,y', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{what} must be two integers, got {text!r}") from None


def _parse_list(text: str, what: str, convert: type[int] | type[float]) -> list:
    """Comma-separated values, each read by ``convert`` (int or float)."""
    try:
        values = [convert(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integers" if convert is int else "numbers"
        raise ValueError(f"{what} must be comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} must not be empty")
    return values


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        return args.seed
    env = os.environ.get("SQW_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"SQW_SEED must be an integer, got {env!r}") from None
        if value < 0:
            raise ValueError("SQW_SEED must be non-negative")
        return value
    return 0


def _resolve_workers(args) -> int:
    if args.workers is None:
        return max(1, os.cpu_count() or 1)
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    return args.workers


def _noise_from_args(args, p: float | None = None) -> NoiseSpec:
    kind = _KIND_BY_FLAG[args.noise]
    if p is None:
        p = args.p
    if kind == "none":
        if p not in (None, 0.0):
            raise ValueError("--p requires --noise vertices or --noise polygons")
        if args.scope != "all":
            raise ValueError("--scope requires --noise polygons")
        return NoiseSpec()
    if p is None:
        raise ValueError(f"--noise {args.noise} requires --p")
    scope = None if args.scope == "all" else tuple(_parse_list(args.scope, "--scope", int))
    return NoiseSpec(kind=kind, p=p, split_policy=args.split, scope=scope)


def _noise_params(args) -> list[tuple[str, str]]:
    return [
        ("noise", args.noise),
        ("split", args.split),
        ("scope", args.scope),
    ]


def _run_params(args, noise: NoiseSpec, cell_key: str, cell: tuple[int, int],
                steps: int) -> list[tuple[str, str]]:
    """Manifest parameters of a single-grid command (``evolve``, ``search``)."""
    return [
        ("n", str(args.n)),
        ("q", str(args.q)),
        (cell_key, f"{cell[0]},{cell[1]}"),
        *_noise_params(args),
        ("p", _fmt(0.0 if noise.is_off else noise.p)),
        ("steps", str(steps)),
        ("runs", str(args.runs)),
    ]


def _write(path: str, command: str, params: list[tuple[str, str]], seed: int, seed_lines: list[str],
           body: list[str]) -> None:
    """Write ``body`` under the manifest header (package version, command,
    parameters, master seed, per-run seed lines): equal headers mean
    byte-identical files."""
    lines = [f"# sqwsim {__version__}", f"# command: {command}"]
    lines.extend(f"# {key}: {value}" for key, value in params)
    lines.append(f"# master_seed: {seed}")
    Path(path).write_text("\n".join(lines + seed_lines + body) + "\n", encoding="utf-8", newline="\n")


def _summarize(series: list[SuccessSeries]):
    """The mean success curve of a search's runs and its peak metrics."""
    curve = aggregate([s.probabilities for s in series])
    return curve, peak_metrics(curve.mean)


def cmd_validate(args) -> int:
    graph = read_graph(Path(args.graph).read_text(encoding="utf-8"))
    cover = read_cover(Path(args.cover).read_text(encoding="utf-8"), graph)
    report = validate_cover(cover)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_evolve(args) -> int:
    spec = GridSpec(args.n, args.q)
    origin = _parse_pair(args.origin, "--origin")
    noise = _noise_from_args(args)
    seed = _resolve_seed(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")

    result = displacement_experiment(
        spec,
        args.steps,
        noise=noise,
        runs=args.runs,
        master_seed=seed,
        origin=origin,
        workers=_resolve_workers(args),
    )

    params = _run_params(args, noise, "origin", origin, args.steps)
    seed_lines = ["# run_seeds: " + ",".join(str(s) for s in result.run_seeds)]
    dist = [f"# mean cell distribution after step {args.steps}; row = x, column = y"]
    for row in result.mean_distribution.probabilities:
        dist.append(",".join(_fmt(v) for v in row))
    _write(args.out_dist, "evolve", params, seed, seed_lines, dist)
    std = ["step,mean_sigma,ci_halfwidth,classical_sigma"]
    for t in range(args.steps + 1):
        std.append(
            f"{t},{_fmt(result.sigma.mean[t])},{_fmt(result.sigma.ci_halfwidth[t])},{_fmt(result.classical_sigma[t])}"
        )
    _write(args.out_std, "evolve", params, seed, seed_lines, std)

    print(f"wrote {args.out_dist} and {args.out_std}")
    return 0


def cmd_search(args) -> int:
    spec = GridSpec(args.n, args.q)
    marked = _parse_pair(args.marked, "--marked")
    noise = _noise_from_args(args)
    seed = _resolve_seed(args)
    cfg = SearchConfig(
        spec=spec,
        marked=marked,
        noise=noise,
        max_steps=args.steps,
        runs=args.runs,
        master_seed=seed,
    )
    series = run_search(cfg, workers=_resolve_workers(args))
    agg, summary = _summarize(series)
    lines = ["step,mean_success,ci_halfwidth"]
    for t in range(cfg.max_steps + 1):
        lines.append(f"{t},{_fmt(agg.mean[t])},{_fmt(agg.ci_halfwidth[t])}")
    lines.append(f"# t_peak: {summary.t_peak}")
    lines.append(f"# p_peak: {_fmt(summary.p_peak)}")
    lines.append(f"# running_time: {_fmt(summary.running_time)}")
    params = _run_params(args, noise, "marked", marked, cfg.max_steps)
    seed_lines = ["# run_seeds: " + ",".join(str(s.run_seed) for s in series)]
    _write(args.out, "search", params, seed, seed_lines, lines)

    print(
        f"t_peak={summary.t_peak} p_peak={_fmt(summary.p_peak)} "
        f"running_time={_fmt(summary.running_time)}"
    )
    return 0


def cmd_sweep(args) -> int:
    n_list = _parse_list(args.n_list, "--n-list", int)
    q_list = _parse_list(args.q_list, "--q-list", int)
    p_list = _parse_list(args.p_list, "--p-list", float)
    seed = _resolve_seed(args)
    workers = _resolve_workers(args)
    if args.steps_factor <= 0:
        raise ValueError("--steps-factor must be positive")
    if args.noise == "none" and any(p != 0.0 for p in p_list):
        raise ValueError("--p-list with non-zero entries requires --noise vertices or polygons")

    combos = []
    for n in n_list:
        for q in q_list:
            for p in p_list:
                spec = GridSpec(n, q)
                combos.append((n, q, p, SearchConfig(
                    spec=spec,
                    noise=_noise_from_args(args, p=p),
                    max_steps=default_step_budget(spec, args.steps_factor),
                    runs=args.runs,
                    master_seed=child_seed(seed, len(combos)),
                )))
    cfgs = [cfg for *_, cfg in combos]
    if workers == 1:
        # One call per combo, so that each combo's walk runs inside its own
        # run_search call, where the traced benchmark counts a search's steps.
        results = [run_search(cfg) for cfg in cfgs]
    else:
        results = _run_searches(cfgs, workers)

    seed_lines: list[str] = []
    rows: list[str] = []
    for (n, q, p, cfg), series in zip(combos, results):
        _, summary = _summarize(series)
        peaks = aggregate([[s.probabilities.max()] for s in series])
        label = f"n={n},q={q},p={_fmt(p)}"
        run_seeds = ",".join(str(s.run_seed) for s in series)
        seed_lines.append(f"# combo[{label}] seed: {cfg.master_seed}")
        seed_lines.append(f"# combo[{label}] run_seeds: {run_seeds}")
        rows.append(
            f"{n},{q},{_fmt(p)},{_fmt(peaks.mean[0])},{_fmt(peaks.ci_halfwidth[0])},"
            f"{summary.t_peak},{_fmt(summary.running_time)}"
        )

    params = [
        ("n_list", ",".join(str(n) for n in n_list)),
        ("q_list", ",".join(str(q) for q in q_list)),
        ("p_list", ",".join(_fmt(p) for p in p_list)),
        *_noise_params(args),
        ("steps_factor", _fmt(args.steps_factor)),
        ("runs", str(args.runs)),
    ]
    header = "n,q,p,mean_p_peak,ci_halfwidth,t_peak,running_time"
    _write(args.out, "sweep", params, seed, seed_lines, [header, *rows])

    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqwsim",
        description="Staggered quantum walks on tessellated graphs: evolution, "
        "search by a missing polygon, and unitary percolation noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    noise_parent = argparse.ArgumentParser(add_help=False)
    noise_parent.add_argument(
        "--noise", choices=tuple(_KIND_BY_FLAG), default="none",
        help="per-step perturbation model (default: none)",
    )
    noise_parent.add_argument("--p", type=float, default=None, help="per-step break probability")
    noise_parent.add_argument(
        "--split", choices=("singletons", "one_vs_rest"), default="singletons",
        help="how broken polygons split (default: singletons)",
    )
    noise_parent.add_argument(
        "--scope", default="all",
        help="tessellation indices eligible for polygon breaking, e.g. '0'; default: all",
    )

    run_parent = argparse.ArgumentParser(add_help=False)
    run_parent.add_argument("--runs", type=int, default=1, help="independent runs to average")
    run_parent.add_argument(
        "--seed", type=int, default=None,
        help="master seed (default: SQW_SEED environment variable, else 0)",
    )
    run_parent.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count); results do not depend on this",
    )

    grid_parent = argparse.ArgumentParser(add_help=False)
    grid_parent.add_argument("--n", type=int, required=True, help="grid width")
    grid_parent.add_argument("--q", type=int, default=1, help="cell cliques have 4q vertices")

    p_validate = sub.add_parser("validate", help="check a tessellation cover file against a graph")
    p_validate.add_argument("--graph", required=True, help="edge-list file: 'V E' header, then 'u v' lines")
    p_validate.add_argument("--cover", required=True, help="cover file: 't v1 ... vm' polygon lines")
    p_validate.set_defaults(func=cmd_validate)

    p_evolve = sub.add_parser(
        "evolve", parents=[noise_parent, run_parent, grid_parent],
        help="spread of a localized walker on the grid of cliques",
    )
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--origin", default="0,0", help="start cell 'x,y'")
    p_evolve.add_argument("--out-dist", required=True, help="CSV: mean final cell distribution")
    p_evolve.add_argument("--out-std", required=True, help="CSV: sigma(t) with CI and classical baseline")
    p_evolve.set_defaults(func=cmd_evolve)

    p_search = sub.add_parser(
        "search", parents=[noise_parent, run_parent, grid_parent],
        help="search for a marked cell via its missing polygon",
    )
    p_search.add_argument("--marked", default="0,0", help="marked cell 'x,y'")
    p_search.add_argument(
        "--steps", type=int, default=None,
        help="step budget (default: ceil(1.5 sqrt(N ln N)) with N = n^2)",
    )
    p_search.add_argument("--out", required=True, help="CSV: mean success probability per step")
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser(
        "sweep", parents=[noise_parent, run_parent],
        help="search experiments over lists of n, q, and p",
    )
    p_sweep.add_argument("--n-list", required=True, help="comma-separated grid widths")
    p_sweep.add_argument("--q-list", default="1", help="comma-separated q values (default: 1)")
    p_sweep.add_argument("--p-list", required=True, help="comma-separated break probabilities")
    p_sweep.add_argument(
        "--steps-factor", type=float, default=1.5,
        help="step budget factor in ceil(factor sqrt(N ln N)) (default: 1.5)",
    )
    p_sweep.add_argument("--out", required=True, help="CSV: one row per (n, q, p)")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
