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

Perturbations are resampled from the pristine cover at every step
(:func:`perturbed_step`), which is how the trajectories of both the spreading
and the search experiments are walked; plans can also be materialized into
explicit perturbed covers (:func:`apply_plan`) for cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .evolve import WalkState, _apply_cover, _flatten, renormalize_if_drifting, step
from .graph import Polygon, Tessellation, TessellatedGraph, _sorted_distinct

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
            scope = tuple(sorted({int(t) for t in self.scope}))
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
    kind: str
    broken_vertex_mask: np.ndarray | None = None
    polygon_breaks: Mapping[int, _TessellationBreaks] = field(default_factory=dict)

    def __post_init__(self):
        if self.broken_vertex_mask is not None and self.polygon_breaks:
            raise ValueError("a plan breaks either vertices or polygons, not both")

    @property
    def is_empty(self) -> bool:
        return self.broken_vertex_mask is None and not self.polygon_breaks

    @property
    def broken_vertices(self) -> np.ndarray:
        if self.broken_vertex_mask is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.broken_vertex_mask)

    def polygon_partitions(self) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
        """Explicit vertex partition of every broken polygon, keyed (tessellation, polygon)."""
        out: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        for t_idx, tb in sorted(self.polygon_breaks.items()):
            polys = self.cover.tessellations[t_idx].polygons
            for pos, j in enumerate(tb.broken):
                poly = polys[int(j)]
                slot = None if tb.lone_slot is None else int(tb.lone_slot[pos])
                out[(t_idx, int(j))] = _partition_blocks(poly, slot)
        return out


def _partition_blocks(poly: Polygon, lone_slot: int | None) -> tuple[tuple[int, ...], ...]:
    verts = [int(v) for v in poly.vertices]
    if len(verts) == 1:
        return (tuple(verts),)
    if lone_slot is None:
        return tuple((v,) for v in verts)
    rest = tuple(v for i, v in enumerate(verts) if i != lone_slot)
    return ((verts[lone_slot],), rest)


def sample_plan(tg: TessellatedGraph, spec: NoiseSpec, rng: np.random.Generator) -> BreakPlan:
    """Draw one step's perturbation.  Draw order is fixed (vertices, or one
    uniform block per tessellation in ascending index order followed by the
    lone-slot draws), so equal seeds give equal plans."""
    if spec.is_off:
        return BreakPlan(tg, "none")

    if spec.kind == "break_vertices":
        mask = rng.random(tg.num_vertices) < spec.p
        if not mask.any():
            return BreakPlan(tg, spec.kind)
        return BreakPlan(tg, spec.kind, broken_vertex_mask=mask)

    scope = spec.scope if spec.scope is not None else tuple(range(tg.num_tessellations))
    if scope and scope[-1] >= tg.num_tessellations:
        raise ValueError(f"scope index {scope[-1]} out of range for {tg.num_tessellations} tessellations")
    breaks: dict[int, _TessellationBreaks] = {}
    for t_idx in scope:
        flat = _flatten(tg.tessellations[t_idx])
        hits = rng.random(flat.sizes.size) < spec.p
        broken = np.flatnonzero(hits)
        if broken.size == 0:
            continue
        lone = None
        if spec.split_policy == "one_vs_rest":
            lone = rng.integers(0, flat.sizes[broken])
        breaks[t_idx] = _TessellationBreaks(broken=broken, lone_slot=lone)
    return BreakPlan(tg, spec.kind, polygon_breaks=breaks)


def break_polygon(poly: Polygon, partition: Sequence[Sequence[int]]) -> tuple[Polygon, ...]:
    """Split a polygon along a vertex partition, renormalizing each block.

    A block's new amplitudes are the old ones divided by the block norm
    beta = sqrt(sum of |amplitude|^2 over the block); beta = 0 is an error.
    """
    pos_of = {int(v): i for i, v in enumerate(poly.vertices)}
    seen: set[int] = set()
    out = []
    for block in partition:
        idx = []
        for v in block:
            v = int(v)
            if v not in pos_of:
                raise ValueError(f"vertex {v} is not in the polygon")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two blocks")
            seen.add(v)
            idx.append(pos_of[v])
        if not idx:
            raise ValueError("empty block in partition")
        amps = poly.amplitudes[idx]
        beta = float(np.linalg.norm(amps))
        if beta == 0.0:
            raise ValueError("block carries zero amplitude and cannot be renormalized")
        out.append(Polygon(poly.vertices[idx], amps / beta))
    if len(seen) != poly.size:
        raise ValueError("partition does not cover the whole polygon")
    return tuple(out)


def remove_vertices(tg: TessellatedGraph, vertices: Iterable[int]) -> TessellatedGraph:
    """Drop the given vertices from every polygon of every tessellation.

    Surviving amplitude blocks are renormalized; polygons losing all their
    vertices disappear.  Removing nothing returns the cover unchanged, and
    the operation is exactly idempotent.
    """
    idx = _sorted_distinct(np.fromiter((int(v) for v in vertices), dtype=np.int64))
    if idx.size == 0:
        return tg
    if idx[0] < 0 or idx[-1] >= tg.num_vertices:
        raise ValueError("vertex index out of range")
    mask = np.zeros(tg.num_vertices, dtype=bool)
    mask[idx] = True

    new_tess: list[Tessellation] = []
    changed_any = False
    for tess in tg.tessellations:
        new_polys = []
        changed = False
        for poly in tess.polygons:
            hit = mask[poly.vertices]
            if not hit.any():
                new_polys.append(poly)
                continue
            changed = True
            keep = ~hit
            if not keep.any():
                continue
            amps = poly.amplitudes[keep]
            beta = float(np.linalg.norm(amps))
            if beta == 0.0:
                raise ValueError("surviving block carries zero amplitude")
            new_polys.append(Polygon(poly.vertices[keep], amps / beta))
        if changed:
            covered = sum(p.size for p in new_polys)
            new_tess.append(Tessellation(tuple(new_polys), covers_all_vertices=covered == tg.num_vertices))
            changed_any = True
        else:
            new_tess.append(tess)
    if not changed_any:
        return tg
    return TessellatedGraph(tg.graph, tuple(new_tess), pristine=False)


def apply_plan(tg: TessellatedGraph, plan: BreakPlan) -> TessellatedGraph:
    """Materialize a sampled plan as an explicit perturbed cover."""
    if plan.cover is not tg:
        raise ValueError("plan was sampled from a different cover")
    if plan.is_empty:
        return tg
    if plan.broken_vertex_mask is not None:
        return remove_vertices(tg, plan.broken_vertices)

    new_tess = list(tg.tessellations)
    for t_idx, tb in sorted(plan.polygon_breaks.items()):
        tess = tg.tessellations[t_idx]
        slots = {int(j): (None if tb.lone_slot is None else int(tb.lone_slot[pos]))
                 for pos, j in enumerate(tb.broken)}
        new_polys: list[Polygon] = []
        for j, poly in enumerate(tess.polygons):
            if j in slots:
                new_polys.extend(break_polygon(poly, _partition_blocks(poly, slots[j])))
            else:
                new_polys.append(poly)
        new_tess[t_idx] = Tessellation(tuple(new_polys), covers_all_vertices=tess.covers_all_vertices)
    return TessellatedGraph(tg.graph, tuple(new_tess), pristine=False)


def plan_step(plan: BreakPlan, state: WalkState) -> WalkState:
    """Apply one walk step under an already-sampled plan.

    Equivalent to ``step(apply_plan(cover, plan), state)`` up to floating
    round-off, but works directly on the pristine cover's compiled layout
    with per-entry masks, so nothing is rebuilt per step: a broken vertex
    drops out of its polygon in every tessellation, and the split-off
    entries of a broken polygon drop out and reflect as singletons.  An
    empty plan takes exactly the clean path of :func:`sqwsim.evolve.step`.
    """
    tg = plan.cover
    vmask = plan.broken_vertex_mask
    masks = []
    for t_idx, tess in enumerate(tg.tessellations):
        flat = _flatten(tess)
        drop = None if vmask is None else flat.gather(vmask)
        lone = None
        tb = plan.polygon_breaks.get(t_idx)
        if tb is not None:
            drop = lone = flat.entry_mask(tb.broken, tb.lone_slot)
        masks.append((drop, lone))
    return _apply_cover(tg, state, masks)


def perturbed_step(
    tg: TessellatedGraph, spec: NoiseSpec, rng: np.random.Generator, state: WalkState
) -> WalkState:
    """Sample a fresh perturbation of the cover and apply one step under it.

    With noise off (or an empty draw) this is bit-for-bit identical to
    :func:`sqwsim.evolve.step` on the pristine cover.
    """
    plan = sample_plan(tg, spec, rng)
    return plan_step(plan, state)


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
    state.  ``rng`` is only drawn from when the noise is on.
    """
    series = np.empty(steps + 1, dtype=np.float64)
    series[0] = observe(state)
    for t in range(1, steps + 1):
        if spec.is_off:
            state = step(tg, state)
        else:
            state = perturbed_step(tg, spec, rng, state)
        if t % 1000 == 0:
            state = renormalize_if_drifting(state)
        series[t] = observe(state)
    return series, state
