"""Unitary percolation-style decoherence for staggered walks.

Two break models, both keeping every step exactly unitary:

* ``break_polygons``: each polygon independently shatters with probability p
  into a partition of smaller polygons whose amplitude blocks are
  renormalized (split policies: all singletons, or one random vertex versus
  the rest).
* ``break_vertices``: each vertex independently drops with probability p out
  of every polygon of every tessellation; the surviving blocks are
  renormalized and the dropped vertex, now uncovered, just picks up the -I
  term of each reflection.

Perturbations are resampled from the unperturbed cover at every step, which
is how the trajectories of both the spreading and the search experiments are
walked: :func:`sample_plan` draws a plan and :func:`plan_step` walks it.
:func:`sqwsim.evolve.step`, the one step entry, takes the plan and patches
the polygons it hits onto each clean reflection of the unperturbed cover;
:func:`sqwsim.oracle.apply_plan` materializes the same plan as an explicit
perturbed cover for cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .evolve import WalkState, renormalize_if_drifting, step
from .graph import TessellatedGraph, _as_index

KINDS = ("none", "break_vertices", "break_polygons")
SPLIT_POLICIES = ("singletons", "one_vs_rest")


@dataclass(frozen=True)
class NoiseSpec:
    """What breaks, how often, and how polygons split when they do.

    ``scope`` optionally restricts polygon breaking to the listed
    tessellation indices; vertex breaking always hits every tessellation,
    since a broken vertex leaves the graph for the duration of the step.
    """

    kind: str = "none"
    p: float = 0.0
    split_policy: str = "singletons"
    scope: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {KINDS}")
        if self.split_policy not in SPLIT_POLICIES:
            raise ValueError(f"unknown split policy {self.split_policy!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"break probability must lie in [0, 1], got {self.p!r}")
        if self.kind == "none" and self.p != 0.0:
            raise ValueError("p must be 0 when kind is 'none'")
        if self.scope is not None:
            if self.kind != "break_polygons":
                raise ValueError("scope applies only to polygon breaking")
            scope = tuple(sorted({_as_index(t, "scope index") for t in self.scope}))
            if not scope:
                raise ValueError("scope must list at least one tessellation")
            if scope[0] < 0:
                raise ValueError("scope indices must be non-negative")
            object.__setattr__(self, "scope", scope)

    @property
    def is_off(self) -> bool:
        return self.kind == "none" or self.p == 0.0


@dataclass(frozen=True, eq=False)
class _TessellationBreaks:
    """Broken polygon indices of one tessellation, plus the detached slot
    per polygon under the one_vs_rest policy (None means full singleton split)."""

    broken: np.ndarray
    lone_slot: np.ndarray | None


@dataclass(frozen=True, eq=False)
class BreakPlan:
    """One step's sampled perturbation, tied to the cover it was drawn from.

    Exactly one of ``broken_vertex_mask`` / ``polygon_breaks`` is populated
    (or neither, for an empty draw).
    """

    cover: TessellatedGraph
    broken_vertex_mask: np.ndarray | None = None
    polygon_breaks: Mapping[int, _TessellationBreaks] = field(default_factory=dict)

    def __post_init__(self):
        mask, shape = self.broken_vertex_mask, (self.cover.num_vertices,)
        if mask is not None and self.polygon_breaks:
            raise ValueError("a plan breaks either vertices or polygons, not both")
        if mask is not None and not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_ and mask.shape == shape):
            raise ValueError(f"broken_vertex_mask must be a bool array of shape {shape}")

    @property
    def is_empty(self) -> bool:
        return self.broken_vertex_mask is None and not self.polygon_breaks

    @property
    def broken_vertices(self) -> np.ndarray:
        if self.broken_vertex_mask is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.broken_vertex_mask)


def _scope_of(tg: TessellatedGraph, spec: NoiseSpec) -> tuple[int, ...]:
    """The tessellation indices polygon breaking may hit on ``tg``."""
    if spec.scope is None:
        return tuple(range(tg.num_tessellations))
    if spec.scope[-1] >= tg.num_tessellations:
        raise ValueError(f"scope index {spec.scope[-1]} out of range for {tg.num_tessellations} tessellations")
    return spec.scope


def sample_plan(tg: TessellatedGraph, spec: NoiseSpec, rng: np.random.Generator) -> BreakPlan:
    """Draw one step's perturbation.  Draw order is fixed (vertices, or one
    uniform block per tessellation in ascending index order followed by the
    lone-slot draws), so equal seeds give equal plans."""
    if spec.is_off:
        return BreakPlan(tg)

    if spec.kind == "break_vertices":
        mask = rng.random(tg.num_vertices) < spec.p
        if not mask.any():
            return BreakPlan(tg)
        return BreakPlan(tg, broken_vertex_mask=mask)

    breaks: dict[int, _TessellationBreaks] = {}
    for t_idx in _scope_of(tg, spec):
        tess = tg.tessellations[t_idx]
        hits = rng.random(tess.num_polygons) < spec.p
        broken = np.flatnonzero(hits)
        if broken.size == 0:
            continue
        lone = None
        if spec.split_policy == "one_vs_rest":
            lone = rng.integers(0, tess.sizes[broken])
        breaks[t_idx] = _TessellationBreaks(broken=broken, lone_slot=lone)
    return BreakPlan(tg, polygon_breaks=breaks)


def plan_step(plan: BreakPlan, state: WalkState) -> WalkState:
    """One walk step under an already-sampled plan, on the cover it was
    drawn from: ``step(plan.cover, state, plan)``.

    Equivalent to ``step(sqwsim.oracle.apply_plan(cover, plan), state)`` up
    to floating round-off, but nothing is rebuilt per step (see
    :func:`sqwsim.evolve.step`).  An empty plan takes exactly the clean path.
    """
    return step(plan.cover, state, plan)


def _trajectory(
    tg: TessellatedGraph,
    state: WalkState,
    steps: int,
    spec: NoiseSpec,
    rng: np.random.Generator | None,
    observe: Callable[[WalkState], float],
) -> tuple[np.ndarray, WalkState]:
    """Walk ``steps`` steps from ``state``, each perturbed afresh under ``spec``.

    Returns ``observe`` of the state after t = 0..steps steps, and the final
    state.  ``rng`` is only drawn from when the noise is on.  The noise
    scope is checked against ``tg`` even when no plan is ever drawn.
    """
    _scope_of(tg, spec)
    try:
        series = np.empty(steps + 1, dtype=np.float64)
    except (MemoryError, ValueError):
        raise ValueError(f"step budget {steps} is too large to record its series") from None
    series[0] = observe(state)
    for t in range(1, steps + 1):
        state = step(tg, state) if spec.is_off else plan_step(sample_plan(tg, spec, rng), state)
        if t % 1000 == 0:
            state = renormalize_if_drifting(state)
        series[t] = observe(state)
    return series, state
