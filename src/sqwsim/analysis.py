"""Position statistics, run aggregation, and classical baselines.

Positions live on the n-by-n torus of cells; displacements use the minimal
image convention, mapping a coordinate difference into [-n//2, n - n//2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .evolve import WalkState, _abs2, localized_clique_state
from .graph import GridSpec, make_grid_of_cliques
from .noise import NoiseSpec, _trajectory
from .rng import _map_runs, child_seed


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Probability mass over cells, indexed [x, y]."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1] or probs.shape[0] == 0:
            raise ValueError("expected a non-empty square matrix")
        if not np.all(np.isfinite(probs)):
            raise ValueError("non-finite probability entries")
        if probs.min() < 0.0:
            raise ValueError("negative probability entries")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def n(self) -> int:
        return int(self.probabilities.shape[0])


class DisplacementStats(NamedTuple):
    mean_dx: float
    mean_dy: float
    sigma: float


@dataclass(frozen=True, eq=False)
class AggregateSeries:
    """Across-run mean of per-run series with a 95% normal CI half-width."""

    mean: np.ndarray
    ci_halfwidth: np.ndarray
    num_runs: int


def position_distribution(state: WalkState, spec: GridSpec) -> PositionDistribution:
    """Collapse vertex probabilities onto cells."""
    if state.num_vertices != spec.num_vertices:
        raise ValueError("state size does not match the grid")
    slots = _abs2(state).reshape(-1, spec.cell_size)
    # Adding the strided slot columns in order makes n^2-long passes; summing
    # each cell's row makes numpy loop over n^2 rows of only 4q entries.
    probs = slots[:, 0].copy()
    for k in range(1, spec.cell_size):
        probs += slots[:, k]
    return PositionDistribution(probs.reshape(spec.n, spec.n))


def _minimal_image(n: int, origin: int) -> np.ndarray:
    half = n // 2
    return ((np.arange(n) - origin + half) % n) - half


def torus_displacement_stats(dist: PositionDistribution, origin: tuple[int, int] = (0, 0)) -> DisplacementStats:
    """Mean displacement from ``origin`` and the spread
    sigma = sqrt(Var(dx) + Var(dy)) under minimal-image displacements."""
    n = dist.n
    x0, y0 = origin
    dx = _minimal_image(n, x0).astype(np.float64)
    dy = _minimal_image(n, y0).astype(np.float64)
    px = dist.probabilities.sum(axis=1)
    py = dist.probabilities.sum(axis=0)
    mean_dx = float(dx @ px)
    mean_dy = float(dy @ py)
    second = float((dx**2) @ px + (dy**2) @ py)
    var = max(second - mean_dx**2 - mean_dy**2, 0.0)
    return DisplacementStats(mean_dx, mean_dy, math.sqrt(var))


def _classical_kernel(probs: np.ndarray) -> np.ndarray:
    return 0.25 * (
        np.roll(probs, 1, axis=0)
        + np.roll(probs, -1, axis=0)
        + np.roll(probs, 1, axis=1)
        + np.roll(probs, -1, axis=1)
    )


def _classical_walk(n: int, steps: int) -> Iterator[np.ndarray]:
    """Distributions of the symmetric classical random walk on the torus,
    one axis step per tick from a point mass at (0, 0), after t = 0..steps ticks."""
    if n < 1:
        raise ValueError("n must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    probs = np.zeros((n, n), dtype=np.float64)
    probs[0, 0] = 1.0
    yield probs
    for _ in range(steps):
        probs = _classical_kernel(probs)
        yield probs


def classical_sigma_series(n: int, steps: int) -> np.ndarray:
    """sigma(t) of the classical walk for t = 0..steps (exactly sqrt(t) until
    wrap-around becomes visible)."""
    return np.array([torus_displacement_stats(PositionDistribution(probs)).sigma
                     for probs in _classical_walk(n, steps)])


def aggregate(series: Sequence[np.ndarray]) -> AggregateSeries:
    """Mean and 95% CI half-width across runs (sample sd, 1.96 / sqrt(runs)).

    Runs are stacked in the given order, so the reduction is deterministic.
    """
    arr = np.asarray([np.asarray(s, dtype=np.float64) for s in series])
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need at least one run, all of equal length")
    runs = arr.shape[0]
    mean = arr.mean(axis=0)
    if runs > 1:
        sd = arr.std(axis=0, ddof=1)
        ci = 1.96 * sd / math.sqrt(runs)
    else:
        ci = np.zeros_like(mean)
    return AggregateSeries(mean=mean, ci_halfwidth=ci, num_runs=runs)


def _negate_axis(mat: np.ndarray, axis: int) -> np.ndarray:
    # index map i -> (-i) mod n
    return np.roll(np.flip(mat, axis=axis), 1, axis=axis)


def check_dihedral_symmetry(dist: PositionDistribution, origin: tuple[int, int] = (0, 0)) -> float:
    """Largest deviation of the distribution from its eight square-symmetry
    images about ``origin`` (reflections across both axes and the diagonal)."""
    x0, y0 = origin
    base = np.roll(dist.probabilities, shift=(-x0, -y0), axis=(0, 1))
    dev = 0.0
    for mat in (base, base.T):
        for flip_x in (False, True):
            for flip_y in (False, True):
                img = mat
                if flip_x:
                    img = _negate_axis(img, 0)
                if flip_y:
                    img = _negate_axis(img, 1)
                dev = max(dev, float(np.max(np.abs(img - base))))
    return dev


@dataclass(frozen=True, eq=False)
class DisplacementResult:
    """Spread-versus-time experiment output."""

    sigma: AggregateSeries
    mean_distribution: PositionDistribution
    classical_sigma: np.ndarray
    run_seeds: tuple[int, ...]


def displacement_experiment(
    spec: GridSpec,
    steps: int,
    noise: NoiseSpec = NoiseSpec(),
    runs: int = 1,
    master_seed: int = 0,
    origin: tuple[int, int] = (0, 0),
    workers: int = 1,
) -> DisplacementResult:
    """Spread of the walk from a localized start, averaged over runs.

    Reports sigma(t) with CIs, the across-run mean of the final-time cell
    distribution, and the classical sqrt(t) baseline of equal length.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if runs < 1:
        raise ValueError("need at least one run")
    x0, y0 = origin
    if not (0 <= x0 < spec.n and 0 <= y0 < spec.n):
        raise ValueError(f"origin {origin} outside the {spec.n}x{spec.n} grid")

    seeds = [child_seed(master_seed, r) for r in range(runs)]

    def prepare():
        tg = make_grid_of_cliques(spec)
        start = localized_clique_state(spec, *origin)

        def sigma_of(state: WalkState) -> float:
            return torus_displacement_stats(position_distribution(state, spec), origin).sigma

        def run(rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
            sigma, final = _trajectory(tg, start, steps, noise, rng, sigma_of)
            return sigma, position_distribution(final, spec).probabilities

        return run

    sigmas, finals = zip(*_map_runs([(prepare, seeds, noise.is_off)], workers)[0])
    mean_final = np.mean(np.asarray(finals), axis=0)
    return DisplacementResult(
        sigma=aggregate(sigmas),
        mean_distribution=PositionDistribution(mean_final),
        classical_sigma=classical_sigma_series(spec.n, steps),
        run_seeds=tuple(seeds),
    )
