"""Search on the grid of cliques by leaving one cell's polygon out.

Removing the marked cell's polygon from tessellation 0 turns that
tessellation's reflection into -I on the marked clique, which acts as the
search oracle.  Runs start from the uniform state, iterate (possibly
perturbed) steps, and record the probability of finding the walker on the
marked clique after each step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evolve import WalkState, _abs2, uniform_state
from .graph import GridSpec, Tessellation, TessellatedGraph, make_grid_of_cliques
from .noise import NoiseSpec, _trajectory
from .rng import _map_runs, child_seed


def default_step_budget(spec: GridSpec, factor: float = 1.5) -> int:
    """ceil(factor * sqrt(N ln N)) steps with N = n^2 cells."""
    cells = spec.n**2
    budget = factor * math.sqrt(cells * math.log(cells))
    if not (factor > 0 and math.isfinite(budget)):
        raise ValueError(f"step budget factor must be positive and give a finite budget, got {factor!r}")
    return max(1, math.ceil(budget))


@dataclass(frozen=True)
class SearchConfig:
    """One search experiment: grid, marked cell, noise, budget, and run count."""

    spec: GridSpec
    marked: tuple[int, int] = (0, 0)
    noise: NoiseSpec = NoiseSpec()
    max_steps: int | None = None
    runs: int = 1
    master_seed: int = 0

    def __post_init__(self):
        x, y = self.marked
        if not (0 <= x < self.spec.n and 0 <= y < self.spec.n):
            raise ValueError(f"marked cell {self.marked} outside the {self.spec.n}x{self.spec.n} grid")
        object.__setattr__(self, "marked", (int(x), int(y)))
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", default_step_budget(self.spec))
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")


@dataclass(frozen=True, eq=False)
class SuccessSeries:
    """Per-run success probabilities, entry t = probability after t steps."""

    probabilities: np.ndarray
    run_seed: int

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("series must be a non-empty 1-d array")
        if not np.all(np.isfinite(probs)):
            raise ValueError("series contains non-finite entries")
        if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
            raise ValueError("series entries are not probabilities")
        probs = np.clip(probs, 0.0, 1.0)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class RunSummary:
    """Peak statistics of a success series."""

    t_peak: int
    p_peak: float
    running_time: float


def _grid_spec_of(tg: TessellatedGraph) -> GridSpec:
    """Recover the GridSpec of an intact grid-of-cliques cover, verifying layout."""
    if tg.num_tessellations != 2:
        raise ValueError("expected the two-tessellation grid cover")
    cells = tg.tessellations[0]
    n = math.isqrt(cells.num_polygons)
    if n * n != cells.num_polygons or n < 2:
        raise ValueError("tessellation 0 is not an n*n family of cell cliques")
    sizes = cells.sizes
    if sizes[0] % 4 != 0 or np.any(sizes != sizes[0]):
        raise ValueError("cell cliques must all have 4q vertices")
    spec = GridSpec(n, int(sizes[0]) // 4)
    if spec.num_vertices != tg.num_vertices:
        raise ValueError("vertex count does not match the grid layout")
    if not np.array_equal(cells.vertices, np.arange(tg.num_vertices)):
        raise ValueError("cell cliques are not laid out in grid order")
    return spec


def partial_cover(tg: TessellatedGraph, marked: tuple[int, int]) -> TessellatedGraph:
    """Cover with the marked cell's polygon removed from tessellation 0.

    The marked clique is then uncovered in tessellation 0, so that
    tessellation's reflection acts on it as -I.
    """
    spec = _grid_spec_of(tg)
    x, y = marked
    if not (0 <= x < spec.n and 0 <= y < spec.n):
        raise ValueError(f"marked cell {marked} outside the {spec.n}x{spec.n} grid")
    cells = tg.tessellations[0]
    marked_entries = spec.cell_slice(x, y)
    # Every cell has one size, so the first P boundaries bound the P - 1 cells left.
    reduced = Tessellation.from_arrays(
        np.delete(cells.vertices, marked_entries),
        cells.starts[:-1],
        np.delete(cells.amplitudes, marked_entries),
    )
    return TessellatedGraph(tg.graph, (reduced,) + tg.tessellations[1:])


def success_probability(state: WalkState, spec: GridSpec, marked: tuple[int, int]) -> float:
    """Probability of finding the walker on the marked cell's clique."""
    if state.num_vertices != spec.num_vertices:
        raise ValueError("state size does not match the grid")
    return float(np.sum(_abs2(state, spec.cell_slice(*marked))))


def run_search(cfg: SearchConfig, workers: int = 1) -> list[SuccessSeries]:
    """All runs of a search experiment, in run-index order.

    Run r draws from a child seed derived from (master_seed, r), so results
    are independent of ``workers``; noiseless runs are computed once and
    replicated.
    """
    return _run_searches([cfg], workers)[0]


def _run_searches(cfgs: list[SearchConfig], workers: int) -> list[list[SuccessSeries]]:
    """The runs of every search in ``cfgs``, in (search, run) order: one
    task list over one pool of up to ``workers`` processes, so a worker that
    finishes one search's runs goes on with the next."""
    jobs = [(functools.partial(_search_run, cfg), [child_seed(cfg.master_seed, r) for r in range(cfg.runs)],
             cfg.noise.is_off) for cfg in cfgs]
    return [[SuccessSeries(s, seed) for s, seed in zip(series, seeds)]
            for series, (_, seeds, _) in zip(_map_runs(jobs, workers), jobs)]


def _search_run(cfg: SearchConfig) -> Callable[[np.random.Generator | None], np.ndarray]:
    """One run of a search: its success series, walked on the partial cover
    from the uniform state, drawing its noise from the generator given."""
    partial = partial_cover(make_grid_of_cliques(cfg.spec), cfg.marked)
    start = uniform_state(cfg.spec.num_vertices)

    def observe(state: WalkState) -> float:
        return success_probability(state, cfg.spec, cfg.marked)

    def run(rng: np.random.Generator | None) -> np.ndarray:
        return _trajectory(partial, start, cfg.max_steps, cfg.noise, rng, observe)[0]

    return run


def peak_metrics(mean_series: np.ndarray) -> RunSummary:
    """Peak of a success series and the running-time figure t_peak / sqrt(p_peak).

    Ties pick the earliest step; an all-zero series has no defined peak.
    """
    arr = np.asarray(mean_series, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("mean series must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("mean series contains non-finite entries")
    t_peak = int(np.argmax(arr))
    p_peak = float(arr[t_peak])
    if p_peak <= 0.0:
        raise ValueError("success probability never becomes positive; peak undefined")
    return RunSummary(t_peak=t_peak, p_peak=p_peak, running_time=t_peak / math.sqrt(p_peak))
