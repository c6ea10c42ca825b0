"""State vectors and application of tessellation reflection operators.

Each tessellation T induces the orthogonal reflection
U_T = 2 * sum_j |P_j><P_j| - I over its polygon states, and one walk step
applies the tessellations of a cover in index order.  Tessellations are
compiled once into flat arrays so a reflection costs a few vectorized passes
over the covered entries instead of a Python loop over polygons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .graph import GridSpec, Tessellation, TessellatedGraph

#: Tolerance on the unit norm of walk states.
STATE_NORM_TOL = 1e-10
#: Norm drift beyond which long-running loops renormalize defensively.
_DRIFT_RENORM = 1e-12
#: Norm drift treated as a broken internal invariant.
_DRIFT_ERROR = 1e-8


class InvariantError(RuntimeError):
    """An internal invariant broke (for example unitarity drift beyond tolerance)."""


@dataclass(frozen=True, eq=False)
class WalkState:
    """Unit-norm complex amplitude vector indexed by graph vertex."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state must be a non-empty 1-d amplitude vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_vertices(self) -> int:
        return int(self.amplitudes.size)


def uniform_state(num_vertices: int) -> WalkState:
    """Uniform superposition 1/sqrt(N) over all vertices."""
    if num_vertices <= 0:
        raise ValueError("need at least one vertex")
    amps = np.full(num_vertices, 1.0 / math.sqrt(num_vertices), dtype=np.complex128)
    return WalkState(amps)


def localized_clique_state(spec: GridSpec, x: int = 0, y: int = 0) -> WalkState:
    """State of the cell clique at (x, y): uniform over its 4q vertices, zero elsewhere."""
    amps = np.zeros(spec.num_vertices, dtype=np.complex128)
    amps[spec.cell_slice(x, y)] = 1.0 / math.sqrt(spec.cell_size)
    return WalkState(amps)


@dataclass(eq=False)
class _FlatTessellation:
    """Polygon-major flattening of a tessellation for vectorized reflection.

    ``order`` lists the covered vertices grouped by polygon; ``starts`` are
    the polygon boundaries (length P+1), ``amps``/``conj_amps``/``amps2``
    the aligned amplitudes, their conjugates and their squared magnitudes.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    amps: np.ndarray
    conj_amps: np.ndarray
    amps2: np.ndarray
    max_vertex: int


_flat_cache: "WeakKeyDictionary[Tessellation, _FlatTessellation]" = WeakKeyDictionary()


def _flatten(tess: Tessellation) -> _FlatTessellation:
    cached = _flat_cache.get(tess)
    if cached is not None:
        return cached
    polys = tess.polygons
    if polys:
        order = np.concatenate([p.vertices for p in polys])
        amps = np.concatenate([p.amplitudes for p in polys])
        sizes = np.array([p.size for p in polys], dtype=np.int64)
    else:
        order = np.empty(0, dtype=np.int64)
        amps = np.empty(0, dtype=np.complex128)
        sizes = np.empty(0, dtype=np.int64)
    amps2 = amps.real**2 + amps.imag**2
    if not np.all(amps2 > 0.0):
        # Breaking such a polygon could leave a block that cannot be renormalized.
        raise ValueError("polygon entry with zero amplitude cannot be compiled")
    starts = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    flat = _FlatTessellation(
        order=order,
        starts=starts,
        sizes=sizes,
        amps=amps,
        conj_amps=np.conj(amps),
        amps2=amps2,
        max_vertex=int(order.max()) if order.size else -1,
    )
    _flat_cache[tess] = flat
    return flat


def _reflect(
    flat: _FlatTessellation,
    vec: np.ndarray,
    out: np.ndarray,
    entry_alive: np.ndarray | None = None,
    entry_detached: np.ndarray | None = None,
) -> np.ndarray:
    """out = (2 sum_j |P_j><P_j| - I) vec, optionally perturbed by per-entry
    masks aligned with ``flat.order``.  ``out`` must not alias ``vec``.

    Entries with entry_alive False are dropped from their polygon (the
    survivors are implicitly renormalized); entries with entry_detached True
    act as singleton polygons of their own.  A vertex covered by no
    surviving polygon entry just picks up the -I term.
    """
    np.negative(vec, out=out)
    if not flat.order.size:
        return out
    if entry_alive is None and entry_detached is None:
        sv = vec[flat.order]
        inner = np.add.reduceat(flat.conj_amps * sv, flat.starts[:-1])
        out[flat.order] += (2.0 * np.repeat(inner, flat.sizes)) * flat.amps
        return out

    keep = np.ones(flat.order.size, dtype=bool)
    if entry_alive is not None:
        keep &= entry_alive
    if entry_detached is not None:
        keep &= ~entry_detached

    sv = vec[flat.order]
    weight = np.add.reduceat(flat.amps2 * keep, flat.starts[:-1])
    raw = np.add.reduceat(flat.conj_amps * sv * keep, flat.starts[:-1])
    factor = np.zeros(flat.sizes.size, dtype=np.complex128)
    nonzero = weight > 0.0
    factor[nonzero] = 2.0 * raw[nonzero] / weight[nonzero]
    update = np.repeat(factor, flat.sizes) * flat.amps
    update[~keep] = 0.0
    out[flat.order] += update

    if entry_detached is not None:
        det = entry_detached if entry_alive is None else (entry_detached & entry_alive)
        if det.any():
            # A detached entry reflects as its own unit polygon: net effect +vec.
            out[flat.order[det]] += 2.0 * sv[det]
    return out


def apply_tessellation(tess: Tessellation, state: WalkState) -> WalkState:
    """Apply the reflection operator of a single tessellation."""
    flat = _flatten(tess)
    vec = state.amplitudes
    if flat.max_vertex >= vec.size:
        raise ValueError(f"tessellation references vertex {flat.max_vertex} >= state size {vec.size}")
    out = np.empty_like(vec)
    _reflect(flat, vec, out)
    return WalkState(out)


def _apply_cover(
    tg: TessellatedGraph,
    state: WalkState,
    entry_masks: Sequence[tuple[np.ndarray | None, np.ndarray | None]] | None = None,
) -> WalkState:
    """Apply every tessellation in index order, the t-th one perturbed by the
    (entry_alive, entry_detached) pair ``entry_masks[t]`` when given."""
    vec = state.amplitudes
    if vec.size != tg.num_vertices:
        raise ValueError(f"state has {vec.size} entries, graph has {tg.num_vertices} vertices")
    cur = vec
    scratch = np.empty_like(vec)
    spare: np.ndarray | None = None
    for t_idx, tess in enumerate(tg.tessellations):
        alive, detached = (None, None) if entry_masks is None else entry_masks[t_idx]
        _reflect(_flatten(tess), cur, scratch, alive, detached)
        if spare is None:
            spare = np.empty_like(vec)
        cur, scratch = scratch, (spare if cur is vec else cur)
    if cur is vec:
        cur = vec.copy()
    return WalkState(cur)


def step(tg: TessellatedGraph, state: WalkState) -> WalkState:
    """One walk step: apply every tessellation of the cover in index order."""
    return _apply_cover(tg, state)


def renormalize_if_drifting(state: WalkState) -> WalkState:
    """Guard for long loops: fix tiny norm drift, refuse to mask real breakage."""
    norm = float(np.linalg.norm(state.amplitudes))
    drift = abs(norm - 1.0)
    if drift > _DRIFT_ERROR:
        raise InvariantError(f"walk state norm drifted to {norm!r}")
    if drift > _DRIFT_RENORM:
        return WalkState(state.amplitudes / norm)
    return state
