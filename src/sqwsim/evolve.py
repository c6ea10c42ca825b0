"""State vectors and application of tessellation reflection operators.

Each tessellation T induces the orthogonal reflection
U_T = 2 * sum_j |P_j><P_j| - I over its polygon states, and one walk step
applies the tessellations of a cover in index order.  A tessellation is
compiled into blocks, one per polygon size m: the entries of the block's P
polygons form m slots by P polygons, so a reflection costs a few vectorized
passes per block instead of a Python loop over polygons, with polygon sums
and per-polygon factors running along the block's rows.  Both tessellations
of the grid of cliques and the coin tessellation of a regular graph are one
block each; a tessellation that is one block over vertices 0..E-1 in
polygon order is read and written in place, with no gather or scatter.
Noise detaches entries from their polygons, as a sampled plan says: each
polygon is reweighted by the squared amplitudes of its surviving entries, and
a detached entry either leaves the cover (a broken vertex) or becomes a
singleton polygon (an entry split off a broken polygon).  Broken vertices
enter a reflection as a dense per-entry mask.  Broken polygons are patched
onto the clean pass instead: a block compiles, on its first split, each
polygon's renormalizing factor whole and with each one entry split off, so a
split touches only the broken polygons' columns.  The compiled layout is
private to this module.

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

from .graph import GridSpec, Tessellation, TessellatedGraph, _sorted_distinct

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
class _Block:
    """Compiled layout of the polygons of one size m in a tessellation.

    Per-entry arrays (``amps``, their conjugates ``conj_amps``, their
    squared magnitudes ``amps2``, the gather ``index`` and the vertex-noise
    mask) are (m, P) for the block's P polygons: row j holds slot j of every
    polygon, so a polygon sum adds m rows of length P and a per-polygon
    value broadcasts over the rows (a (P, m) block would loop over rows of
    only m entries).  ``polygons`` lists the block's polygons by their index
    in the tessellation, and is ``slice(None)`` when the block holds them
    all.

    ``index`` is None when the tessellation is this one block over vertices
    0..E-1 in polygon order, as for the cells of the grid of cliques: the
    covered entries are then a view of the state's leading E entries, read
    and written in place.

    ``amps``, ``conj_amps``, ``terms`` and ``gathered`` are float64 when
    every amplitude of the tessellation is real, complex128 otherwise.
    ``terms`` holds the per-entry products of a reflection, and ``gathered``
    (when ``index`` is set) its gathered input and its result.  Every
    reflection reuses them, so a step allocates no entry-sized temporaries:
    the allocator may hand freed temporaries back to the system and fault
    their pages in again on the next step (about 750 minor faults per step
    on the grid at N = 40,000).  Since every reflection writes them, a
    block belongs to the thread that compiled it.
    """

    polygons: slice | np.ndarray
    index: np.ndarray | None
    amps: np.ndarray
    conj_amps: np.ndarray
    amps2: np.ndarray
    terms: np.ndarray
    gathered: np.ndarray | None

    def gather(self, arr: np.ndarray) -> np.ndarray:
        """The block's entries of a per-vertex array, (m, P) (a view when in place)."""
        if self.index is None:
            return arr[: self.amps.size].reshape(self.amps.shape[::-1]).T
        return arr[self.index]

    def held(self, polygons: np.ndarray, slots: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
        """The block columns of the listed polygons that the block holds, and
        the flat index into the (m, P) arrays of entry ``slots[i]`` of each
        (None when ``slots`` is None).  ``polygons`` are ascending indices
        into the tessellation."""
        if isinstance(self.polygons, np.ndarray):
            columns = np.searchsorted(self.polygons, polygons)
            held = self.polygons.take(columns, mode="clip") == polygons
            polygons, slots = columns[held], None if slots is None else slots[held]
        return polygons, None if slots is None else slots * self.amps.shape[1] + polygons

    @cached_property
    def vertices(self) -> np.ndarray:
        """The vertex of each entry, (m, P): the gather index, or built on the
        first split of a block read in place."""
        if self.index is not None:
            return self.index
        return np.ascontiguousarray(self.gather(np.arange(self.amps.size)))

    @cached_property
    def scale(self) -> np.ndarray:
        """2/weight per polygon, the weight being its sum of |amplitude|^2:
        the factor of a reflection that splits some of the tessellation's
        polygons, for the polygons it leaves whole.  Built on the block's
        first split."""
        return _inverse_weights(self.amps2, False)

    @cached_property
    def lone_scale(self) -> np.ndarray:
        """Row j: 2/weight per polygon with the entry of slot j split off, the
        factor of a polygon that loses that one entry.  (m, P), built on the
        block's first one_vs_rest split."""
        slots = np.arange(self.amps.shape[0])[:, None]
        return np.array([_inverse_weights(self.amps2, slots == j) for j in range(slots.size)])

    def reflect(self, vec: np.ndarray, out: np.ndarray, drop: np.ndarray | None = None,
                split: tuple[np.ndarray, np.ndarray | None] | None = None) -> None:
        """Write the block's entries of the reflection of ``vec`` into ``out``
        (see :func:`_reflect`).  ``drop`` is an (m, P) mask of broken
        vertices; ``split`` is the block columns of the broken polygons and
        their lone entries (None under singleton splits), see :meth:`held`."""
        if self.index is None:
            sv = self.gather(vec)
            res = self.gather(out)
        else:
            # Every caller has checked the state size against the cover, so the
            # indices are in range; "clip" spares take its bounds-check buffer.
            sv = np.take(vec, self.index, out=self.gathered[0], mode="clip")
            res = self.gathered[1]
        terms = np.multiply(self.conj_amps, sv, out=self.terms)
        if drop is not None:
            scale = _inverse_weights(self.amps2, drop)
            np.copyto(terms, 0.0, where=drop)
            factor = _polygon_sums(terms) * scale
        elif split is not None:
            # The clean pass, renormalized, with the broken columns patched: a
            # lone entry leaves its polygon's sum and weight.  A polygon split
            # into singletons keeps none of its entries, which are all
            # overwritten below, so its factor is never read.
            columns, entries = split
            if entries is None:
                factor = _polygon_sums(terms) * self.scale
                lone = self.vertices.take(columns, axis=1)
            else:
                terms.reshape(-1)[entries] = 0.0  # a view: terms is C-contiguous
                factor = _polygon_sums(terms)
                broken = factor[columns] * self.lone_scale.take(entries)
                factor *= self.scale
                factor[columns] = broken
                lone = self.vertices.take(entries)
        else:
            factor = 2.0 * _polygon_sums(terms)
        np.multiply(factor, self.amps, out=res)
        res -= sv
        if drop is not None:
            np.negative(sv, out=res, where=drop)
        if self.index is not None:
            out[self.index] = res
        if split is not None:
            # each split-off entry reflects as a singleton polygon: +1
            out[lone] = vec[lone]


def _polygon_sums(entries: np.ndarray) -> np.ndarray:
    """Per-polygon sums of an (m, P) block: the first slot plus the sum of
    the others.  The CLI outputs, compared byte for byte, depend on this order."""
    return entries[0] + np.add.reduce(entries[1:], axis=0)


def _inverse_weights(amps2: np.ndarray, drop) -> np.ndarray:
    """2/weight per polygon of an (m, P) block of |amplitude|^2, the weight
    summing the entries ``drop`` leaves (it broadcasts to (m, P)); 0 for a
    polygon with nothing left."""
    weight = _polygon_sums(np.where(drop, 0.0, amps2))
    scale = np.zeros_like(weight)
    np.divide(2.0, weight, out=scale, where=weight > 0.0)
    return scale


#: A compiled tessellation: the number E of vertices it covers, and its
#: blocks in ascending polygon size.
_Layout = tuple[int, tuple[_Block, ...]]


class _Layouts(threading.local):
    def __init__(self):
        self.by_tess: "WeakKeyDictionary[Tessellation, _Layout]" = WeakKeyDictionary()


#: Each thread's compiled layouts, since every reflection writes its blocks' scratch.
_layouts = _Layouts()


def _flatten(tess: Tessellation) -> _Layout:
    """The layout of ``tess``, compiled once per thread: one block per
    polygon size, each holding its polygons in tessellation order, float64
    when every amplitude of ``tess`` is real and complex128 otherwise.
    ``Tessellation`` refuses any entry with |a|^2 below the least normal
    float, so each block a plan leaves has a finite renormalizing factor."""
    layout = _layouts.by_tess.get(tess)
    if layout is not None:
        return layout
    vertices, amps, sizes = tess.vertices, tess.amplitudes, tess.sizes
    if not amps.imag.any():
        amps = np.ascontiguousarray(amps.real)
    amps2 = amps.real**2 + amps.imag**2
    distinct = _sorted_distinct(sizes).tolist()
    in_place = len(distinct) == 1 and np.array_equal(vertices, np.arange(vertices.size))
    blocks = []
    for m in distinct:
        polygons = slice(None) if len(distinct) == 1 else np.flatnonzero(sizes == m)
        entries = tess.starts[:-1][polygons] + np.arange(m)[:, None]
        blocks.append(_Block(
            polygons=polygons,
            index=None if in_place else vertices[entries],
            amps=amps[entries],
            conj_amps=np.conj(amps[entries]),
            amps2=amps2[entries],
            terms=np.empty(entries.shape, dtype=amps.dtype),
            gathered=None if in_place else np.empty((2,) + entries.shape, dtype=amps.dtype),
        ))
    layout = _layouts.by_tess[tess] = (int(vertices.size), tuple(blocks))
    return layout


def _reflect(
    layout: _Layout,
    vec: np.ndarray,
    out: np.ndarray,
    drop: np.ndarray | None = None,
    breaks=None,
) -> np.ndarray:
    """out = (2 sum_j |P_j><P_j| - I) vec for the tessellation compiled to
    ``layout``, optionally perturbed, and return ``out``.  ``out`` must not
    alias ``vec``.

    Entries detach from their polygon where the per-vertex mask ``drop`` is
    True (broken vertices), or are split off the polygons ``breaks.broken``
    (all their entries, or entry ``breaks.lone_slot[i]`` of polygon
    ``breaks.broken[i]`` when ``lone_slot`` is set), where ``breaks`` is
    the tessellation's entry in a plan's ``polygon_breaks`` and wins over
    ``drop``.  A polygon's surviving block is renormalized by its survivor
    weight (the sum of |amplitude|^2 over entries not detached).  A broken
    vertex leaves the cover and picks up the -I term; a split-off entry
    reflects as a singleton polygon of its own and picks up +1.  A vertex
    covered by no polygon picks up the -I term.  Broken vertices mask every
    entry of each block.  Broken polygons patch only their own columns onto
    the clean pass; a tessellation with any break renormalizes every
    polygon, whole ones too, by its survivor weight.  A real block reflects
    the real and imaginary parts of a complex vector one after the other.
    """
    covered, blocks = layout
    if covered and blocks[0].index is None:
        np.negative(vec[covered:], out=out[covered:])
    elif covered < vec.size:
        np.negative(vec, out=out)
    for block in blocks:
        block_drop = split = None
        if breaks is not None:
            split = block.held(breaks.broken, breaks.lone_slot)
        elif drop is not None:
            block_drop = block.gather(drop)
        if vec.dtype == block.amps.dtype:
            block.reflect(vec, out, block_drop, split)
        else:
            block.reflect(vec.real, out.real, block_drop, split)
            block.reflect(vec.imag, out.imag, block_drop, split)
    return out


def _apply_cover(tg: TessellatedGraph, state: WalkState, plan=None) -> WalkState:
    """Apply every tessellation in index order, each perturbed by ``plan``
    when given.

    ``plan`` is a sampled :class:`sqwsim.noise.BreakPlan`, read only through
    its ``broken_vertex_mask`` and ``polygon_breaks`` (``sqwsim.noise``
    imports this module, so the type is not imported here): a broken vertex
    detaches from its polygon in every tessellation and leaves the cover,
    and the split-off entries of a broken polygon detach and become
    singletons.  The step walks in the dtype of the state's buffer, promoted
    once to complex128 when a tessellation has complex amplitudes, so only
    complex tessellations run in complex128.  Reflections alternate between
    two buffers, so a step allocates at most two state vectors.
    """
    vec = state._amps
    if vec.size != tg.num_vertices:
        raise ValueError(f"state has {vec.size} entries, graph has {tg.num_vertices} vertices")
    layouts = [_flatten(tess) for tess in tg.tessellations]
    if any(block.amps.dtype == np.complex128 for _, blocks in layouts for block in blocks):
        vec = vec.astype(np.complex128, copy=False)
    vmask = None if plan is None else plan.broken_vertex_mask
    breaks = {} if plan is None else plan.polygon_breaks
    buffers = [np.empty_like(vec) for _ in range(min(2, len(layouts)))]
    cur = vec
    for t_idx, layout in enumerate(layouts):
        cur = _reflect(layout, cur, buffers[t_idx % 2], vmask, breaks.get(t_idx))
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
