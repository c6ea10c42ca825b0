"""State vectors and application of tessellation reflection operators.

Each tessellation T induces the orthogonal reflection
U_T = 2 * sum_j |P_j><P_j| - I over its polygon states, and one walk step
applies the tessellations of a cover in index order.  Tessellations are
compiled into flat arrays so a reflection costs a few vectorized passes
over the covered entries instead of a Python loop over polygons.  When all P
polygons of a tessellation have the same size m (both tessellations of the
grid of cliques, the coin tessellation of a regular graph) the entries form
a block of m slots by P polygons, and polygon sums and per-polygon factors
run along its rows; a tessellation covering vertices 0..E-1 in polygon
order is read and written in place, with no gather or scatter.  Polygons of
different sizes keep a flat layout summed with ``reduceat``.  Noise enters
a reflection as one per-entry mask of detached entries, built from a
sampled plan inside :func:`_apply_cover`: each polygon is reweighted by the
squared amplitudes of its surviving entries, and a detached entry either
leaves the cover (a broken vertex) or becomes a singleton polygon (an entry
split off a broken polygon).  The compiled layout is private to this module.

A real reflection, broken or not, keeps a real vector real, so a real state
holds one float64 buffer, which steps walk and observables read; complex
amplitudes are built only when read.  A tessellation is compiled once per
thread, in float64 when its amplitudes are real, and reflects a complex
vector's real and imaginary parts one after the other.

The step loop makes no BLAS call: the unit-norm check that every new state
passes is a plain ufunc reduction, so no BLAS helper thread wakes up and
spins between steps.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .graph import GridSpec, SimpleGraph, Tessellation, TessellatedGraph

#: Tolerance on the unit norm of walk states.
STATE_NORM_TOL = 1e-10
#: Norm drift beyond which long-running loops renormalize defensively.
_DRIFT_RENORM = 1e-12
#: Norm drift treated as a broken internal invariant.
_DRIFT_ERROR = 1e-8


class InvariantError(RuntimeError):
    """An internal invariant broke (for example unitarity drift beyond tolerance)."""


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a contiguous float64 or complex128 vector, summed by
    a ufunc rather than a (possibly threaded) BLAS dot; NaN for NaN entries."""
    parts = amps.view(np.float64)
    return math.sqrt(float(np.add.reduce(parts * parts)))


@dataclass(frozen=True, eq=False, init=False)
class WalkState:
    """Unit-norm amplitude vector indexed by graph vertex, held as one
    read-only copy ``_amps``: float64 when every imaginary part is zero,
    complex128 otherwise.  The complex128 ``amplitudes`` are built from it
    when first read, and kept."""

    _amps: np.ndarray

    def __init__(self, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state must be a non-empty 1-d amplitude vector")
        self._hold(amps if amps.imag.any() else amps.real.copy(), ValueError)

    @classmethod
    def _written(cls, amps: np.ndarray) -> WalkState:
        """The state whose buffer the walk wrote into ``amps``, taken without
        a copy.  Reflections are unitary, so a norm off by more than
        STATE_NORM_TOL is a broken invariant, not bad input."""
        state = object.__new__(cls)
        state._hold(amps, InvariantError)
        return state

    def _hold(self, amps: np.ndarray, error: type[Exception]) -> None:
        norm = _norm(amps)
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise error(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "_amps", amps)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        amps = self._amps.astype(np.complex128, copy=False)
        amps.setflags(write=False)
        return amps

    @property
    def num_vertices(self) -> int:
        return int(self._amps.size)


def _abs2(state: WalkState, where: slice = slice(None)) -> np.ndarray:
    """|amplitude|^2 of the entries ``where``, read from the state's buffer."""
    amps = state._amps[where]
    if amps.dtype == np.float64:
        return amps * amps
    return amps.real**2 + amps.imag**2


def uniform_state(num_vertices: int) -> WalkState:
    """Uniform superposition 1/sqrt(N) over all vertices."""
    if num_vertices <= 0:
        raise ValueError("need at least one vertex")
    amps = np.full(num_vertices, 1.0 / math.sqrt(num_vertices))
    return WalkState(amps)


def localized_clique_state(spec: GridSpec, x: int = 0, y: int = 0) -> WalkState:
    """State of the cell clique at (x, y): uniform over its 4q vertices, zero elsewhere."""
    amps = np.zeros(spec.num_vertices)
    amps[spec.cell_slice(x, y)] = 1.0 / math.sqrt(spec.cell_size)
    return WalkState(amps)


@dataclass(eq=False)
class _FlatTessellation:
    """Compiled layout of a tessellation.

    ``order`` lists the covered vertices grouped by polygon; ``starts`` are
    the polygon boundaries (length P+1) and ``sizes`` the polygon sizes.
    Per-entry arrays (``amps``, their conjugates ``conj_amps``, their
    squared magnitudes ``amps2``, the gather ``index`` and the noise masks)
    have ``shape``:

    * (m, P) when all P polygons have size m: row j holds slot j of every
      polygon, so a polygon sum adds m rows of length P and a per-polygon
      value broadcasts over the rows (a (P, m) block would loop over rows
      of only m entries);
    * (E,) for polygons of different sizes, summed with ``reduceat``.

    ``index`` is None when ``order`` is 0..E-1, as for the cells of the grid
    of cliques: the covered entries are then a view of the state's leading
    E entries, read and written in place.

    ``amps``, ``conj_amps``, ``terms`` and ``gathered`` are float64 when
    every amplitude of the tessellation is real, complex128 otherwise.  ``terms``
    holds the per-entry products of a reflection, and ``gathered`` (when
    ``index`` is set) its gathered input and its result.  Every reflection
    reuses them, so a step allocates no entry-sized temporaries: the
    allocator may hand freed temporaries back to the system and fault their
    pages in again on the next step (about 750 minor faults per step on the
    grid at N = 40,000).  Since every reflection writes them, a layout
    belongs to the thread that compiled it.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    shape: tuple[int, ...]
    index: np.ndarray | None
    amps: np.ndarray
    conj_amps: np.ndarray
    amps2: np.ndarray
    terms: np.ndarray
    gathered: np.ndarray | None

    @property
    def is_block(self) -> bool:
        return len(self.shape) == 2

    def gather(self, arr: np.ndarray) -> np.ndarray:
        """The covered entries of a per-vertex array in ``shape`` (a view when in place)."""
        if self.index is None:
            return arr[: self.order.size].reshape(self.shape[::-1]).T
        return arr[self.index]

    def polygon_sums(self, entries: np.ndarray) -> np.ndarray:
        """Per-polygon sums of per-entry values.

        Blocks add the first slot to the sum of the others, the order in
        which ``reduceat`` adds a short segment, so both layouts give equal
        bits for polygons of up to four entries.
        """
        if self.is_block:
            return entries[0] + np.add.reduce(entries[1:], axis=0)
        return np.add.reduceat(entries, self.starts[:-1])

    def per_entry(self, per_polygon: np.ndarray) -> np.ndarray:
        """Per-polygon values spread over their entries (broadcast for blocks)."""
        return per_polygon if self.is_block else np.repeat(per_polygon, self.sizes)

    def entry_mask(self, polygons: np.ndarray, slots: np.ndarray | None = None) -> np.ndarray:
        """Per-entry mask (broadcastable to ``shape``), True on every entry of
        the listed polygons, or only on entry ``slots[i]`` of ``polygons[i]``."""
        if slots is None:
            hit = np.zeros(self.sizes.size, dtype=bool)
            hit[polygons] = True
            return self.per_entry(hit)
        mask = np.zeros(self.shape, dtype=bool)
        if self.is_block:
            mask[slots, polygons] = True
        else:
            mask[self.starts[polygons] + slots] = True
        return mask


class _Layouts(threading.local):
    def __init__(self):
        self.by_tess: "WeakKeyDictionary[Tessellation, _FlatTessellation]" = WeakKeyDictionary()


#: Each thread's compiled layouts, since every reflection writes its layout's scratch.
_layouts = _Layouts()


def _flatten(tess: Tessellation) -> _FlatTessellation:
    """The layout of ``tess``, compiled once per thread: float64 when every
    amplitude is real, complex128 otherwise."""
    flat = _layouts.by_tess.get(tess)
    if flat is not None:
        return flat
    order, starts, amps = tess.vertices, tess.starts, tess.amplitudes
    if not amps.imag.any():
        amps = np.ascontiguousarray(amps.real)
    sizes = tess.sizes
    amps2 = amps.real**2 + amps.imag**2
    if not np.all(amps2 > 0.0):
        # Breaking such a polygon could leave a block that cannot be renormalized.
        raise ValueError("polygon entry with zero amplitude cannot be compiled")
    m = int(sizes[0]) if sizes.size and np.all(sizes == sizes[0]) else 0

    def laid_out(entries: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(entries.reshape(-1, m).T) if m else entries

    in_place = np.array_equal(order, np.arange(order.size))
    shape = laid_out(order).shape
    flat = _FlatTessellation(
        order=order,
        starts=starts,
        sizes=sizes,
        shape=shape,
        index=None if in_place else laid_out(order),
        amps=laid_out(amps),
        conj_amps=laid_out(np.conj(amps)),
        amps2=laid_out(amps2),
        terms=np.empty(shape, dtype=amps.dtype),
        gathered=None if in_place else np.empty((2,) + shape, dtype=amps.dtype),
    )
    _layouts.by_tess[tess] = flat
    return flat


def _reflect(
    flat: _FlatTessellation,
    vec: np.ndarray,
    out: np.ndarray,
    drop: np.ndarray | None = None,
    split: bool = False,
) -> np.ndarray:
    """out = (2 sum_j |P_j><P_j| - I) vec, optionally perturbed by a per-entry
    mask broadcastable to ``flat.shape``.  ``vec`` and ``out`` have the
    layout's dtype (they may be strided views); ``out`` must not alias ``vec``.

    Entries marked in ``drop`` detach from their polygon, whose surviving
    block is renormalized by the per-polygon survivor weight (the sum of
    |amplitude|^2 over entries not dropped).  A detached entry leaves the
    cover and picks up the -I term, or with ``split`` reflects as a singleton
    polygon of its own and picks up +1.  A vertex covered by no polygon picks
    up the -I term.
    """
    size = flat.order.size
    if flat.index is None:
        sv = flat.gather(vec)
        res = flat.gather(out)
        np.negative(vec[size:], out=out[size:])
    else:
        # Every caller has checked the state size against the cover, so the
        # indices are in range; "clip" spares take its bounds-check buffer.
        sv = np.take(vec, flat.index, out=flat.gathered[0], mode="clip")
        res = flat.gathered[1]
        if size < vec.size:
            np.negative(vec, out=out)
    if not size:
        return out
    terms = np.multiply(flat.conj_amps, sv, out=flat.terms)
    if drop is None:
        factor = 2.0 * flat.polygon_sums(terms)
    else:
        weight = flat.polygon_sums(np.where(drop, 0.0, flat.amps2))
        np.copyto(terms, 0.0, where=drop)
        scale = np.zeros_like(weight)
        np.divide(2.0, weight, out=scale, where=weight > 0.0)
        factor = flat.polygon_sums(terms) * scale
    np.multiply(flat.per_entry(factor), flat.amps, out=res)
    res -= sv
    if drop is not None:
        if split:
            np.copyto(res, sv, where=drop)
        else:
            np.negative(sv, out=res, where=drop)
    if flat.index is not None:
        out[flat.index] = res
    return out


def apply_tessellation(tess: Tessellation, state: WalkState) -> WalkState:
    """Apply the reflection operator of a single tessellation."""
    tg = TessellatedGraph(SimpleGraph(state.num_vertices), (tess,))
    return _apply_cover(tg, state)


def _apply_cover(tg: TessellatedGraph, state: WalkState, plan=None) -> WalkState:
    """Apply every tessellation in index order, each perturbed by ``plan``
    when given.

    ``plan`` is a sampled :class:`sqwsim.noise.BreakPlan`, read only through
    its ``broken_vertex_mask`` and ``polygon_breaks`` (``sqwsim.noise``
    imports this module, so the type is not imported here): a broken vertex
    detaches from its polygon in every tessellation and leaves the cover,
    and the split-off entries of a broken polygon detach and become
    singletons.  The step walks in the dtype of the state's buffer, promoted
    once to complex128 when a tessellation has complex amplitudes.  A real
    tessellation reflects the real and imaginary parts of a complex vector
    one after the other, so only complex tessellations run in complex128.
    Reflections alternate between two buffers, so a step allocates at most
    two state vectors.
    """
    vec = state._amps
    if vec.size != tg.num_vertices:
        raise ValueError(f"state has {vec.size} entries, graph has {tg.num_vertices} vertices")
    flats = [_flatten(tess) for tess in tg.tessellations]
    if any(flat.amps.dtype == np.complex128 for flat in flats):
        vec = vec.astype(np.complex128, copy=False)
    vmask = None if plan is None else plan.broken_vertex_mask
    breaks = {} if plan is None else plan.polygon_breaks
    buffers = [np.empty_like(vec) for _ in range(min(2, len(flats)))]
    cur = vec
    for t_idx, flat in enumerate(flats):
        drop = None if vmask is None else flat.gather(vmask)
        tb = breaks.get(t_idx)
        if tb is not None:
            drop = flat.entry_mask(tb.broken, tb.lone_slot)
        split, out = tb is not None, buffers[t_idx % 2]
        if cur.dtype == flat.amps.dtype:
            _reflect(flat, cur, out, drop, split)
        else:
            _reflect(flat, cur.real, out.real, drop, split)
            _reflect(flat, cur.imag, out.imag, drop, split)
        cur = out
    return WalkState._written(cur)


def step(tg: TessellatedGraph, state: WalkState) -> WalkState:
    """One walk step: apply every tessellation of the cover in index order."""
    return _apply_cover(tg, state)


def renormalize_if_drifting(state: WalkState) -> WalkState:
    """Guard for long loops: fix tiny norm drift, refuse to mask real breakage."""
    # the complex view's sum adds the same terms in the same order for either
    # buffer, so a real state and i times it renormalize to equal bits
    norm = _norm(state.amplitudes)
    drift = abs(norm - 1.0)
    if not drift <= _DRIFT_ERROR:
        raise InvariantError(f"walk state norm drifted to {norm!r}")
    if drift > _DRIFT_RENORM:
        # numpy divides a complex vector by a real scalar as a product with
        # its reciprocal, so a product gives a float64 buffer the same bits
        return WalkState._written(state._amps * (1.0 / norm))
    return state
