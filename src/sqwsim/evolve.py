"""State vectors and application of tessellation reflection operators.

Each tessellation T induces the orthogonal reflection
U_T = 2 * sum_j |P_j><P_j| - I over its polygon states, and one walk step
applies the tessellations of a cover in index order.  The cover is the unit
of compilation: on its first step in a thread, each of its tessellations is
compiled over all the cover's vertices into blocks, one per polygon size m,
kept in one per-thread table keyed weakly by the cover.  A block's P
polygons form m slots by P polygons, so a reflection costs a few vectorized
passes per block, with polygon sums and per-polygon factors running along
its rows.  A tessellation that is one block over vertices 0..E-1 in polygon
order, as the grid's cells and the coin tessellation of a regular graph
are, is read and written in place.  Any other compiles one permutation of
the cover's vertices (its blocks' entries, then every vertex it leaves
uncovered) and its inverse, through which a reflection gathers and writes
back with one ``take`` each.  A block of two or more polygons whose entries
all hold one real amplitude, as every such block of the grid, its partial
covers, the coined covers and cover files does, is compiled to its shape
and that amplitude.

Noise detaches entries from their polygons, as a sampled plan handed to
:func:`step` says: each polygon is reweighted by the squared amplitudes of
its surviving entries, and a detached entry either leaves the cover (a
broken vertex) or becomes a singleton polygon (split off a broken polygon).
Both are patched onto the clean pass, touching only the columns of the
polygons that lose entries: a split reads their factors from tables that a
block compiles on its first break, and the polygons that broken vertices
hit are weighed anew, or, in a uniform block, read from a table by the
number of entries each keeps.  A block writes its split-off entries last,
and a reflection its broken vertices after its blocks, at vertex level.

A real reflection, broken or not, keeps a real vector real, so a real state
holds one float64 buffer, which steps walk and observables read; complex
amplitudes are built only when read.  A real tessellation compiles in
float64 and reflects a complex vector's real and imaginary parts one after
the other.  The step loop makes no BLAS call: the unit-norm check of every
new state is an ``einsum`` reduction, so no BLAS helper thread spins
between steps.  The compiled layout is private to this module.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple
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
        # einsum's own loop sums the squares with no temporary and no BLAS call
        parts = amps.view(np.float64)
        norm = math.sqrt(float(np.einsum("i,i->", parts, parts)))
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

    Per-entry arrays (``amps``, their conjugates ``conj_amps``, which are
    ``amps`` itself when real, and their squared magnitudes ``amps2``) are
    (m, P) for the block's P polygons: row j holds slot j of every polygon,
    so a polygon sum adds m rows of length P and a per-polygon value
    broadcasts over the rows (a (P, m) block would loop over rows of only m
    entries).  ``polygons`` lists the block's polygons by their index in the
    tessellation, and is ``slice(None)`` when the block holds them all.

    A uniform block, whose entries all hold one real amplitude (see
    :func:`_one_amplitude`), holds that amplitude as a stride-0 (m, P) view
    for ``amps`` and ``conj_amps``, no ``amps2``, and ``kept_scale``: entry
    k is 2/weight of a polygon that keeps k of its m entries.  Any other
    block holds ``amps`` and ``amps2`` whole, and no ``kept_scale``.

    A block read in place, as the one block of the grid's cells is, has no
    ``gathered``: it reads and writes a view of the state's leading E
    entries.  Any other reads ``gathered`` and writes ``terms``, its views
    of its :class:`_Layout`'s gathered input and per-entry products from
    entry ``offset`` on, once the polygon sums have read the products.
    ``amps``, ``conj_amps``, ``terms`` and ``gathered`` are float64 when
    every amplitude of the tessellation is real, complex128 otherwise.
    """

    polygons: slice | np.ndarray
    offset: int
    amps: np.ndarray
    conj_amps: np.ndarray
    amps2: np.ndarray | None
    kept_scale: np.ndarray | None
    terms: np.ndarray
    gathered: np.ndarray | None

    @cached_property
    def scale(self) -> np.ndarray:
        """2/weight per polygon, the weight being its sum of |amplitude|^2:
        the factor of a perturbed reflection for the polygons it leaves
        whole, one value for a uniform block.  Built on the block's first
        break."""
        if self.kept_scale is not None:
            return self.kept_scale[-1]
        return _inverse_weights(self.amps2)

    @cached_property
    def lone_scale(self) -> np.ndarray:
        """Row j: 2/weight per polygon with the entry of slot j detached, the
        factor of a polygon that loses that one entry.  (m, P), built on the
        block's first one_vs_rest split; one value for a uniform block."""
        if self.kept_scale is not None:
            return self.kept_scale[-2]
        slots = np.arange(self.amps.shape[0])[:, None]
        return np.array([_inverse_weights(np.where(slots == j, 0.0, self.amps2)) for j in range(slots.size)])

    def split(self, polygons: np.ndarray, slots: np.ndarray | None) -> tuple:
        """The patch (see :meth:`reflect`) of a plan that splits the listed
        polygons, ascending indices into the tessellation: it splits entry
        ``slots[i]`` off polygon ``polygons[i]``, or all their entries when
        ``slots`` is None, where the block holds the polygon."""
        if isinstance(self.polygons, np.ndarray):
            columns = np.searchsorted(self.polygons, polygons)
            held = self.polygons.take(columns, mode="clip") == polygons
            polygons, slots = columns[held], None if slots is None else slots[held]
        if slots is None:
            # the broken polygons keep no entry, so their factors are never read
            return None, polygons[:0], 0.0, (slice(None), polygons)
        entries = slots * self.amps.shape[1] + polygons
        lone = self.lone_scale
        return entries, polygons, lone if lone.ndim == 0 else lone.take(entries), (slots, polygons)

    def lost(self, keys: np.ndarray) -> tuple:
        """The patch (see :meth:`reflect`) of the broken vertices: ``keys``
        are these vertices, ascending, for a block read in place, and their
        places in the tessellation's permutation for a gathered one."""
        m, size = self.amps.shape
        if self.gathered is None:
            # slot j of column c holds vertex c * m + j
            columns, rows = np.divmod(keys[: np.searchsorted(keys, self.amps.size)], m)
            entries = rows * size + columns
        else:
            entries = keys - self.offset
            entries = entries[(entries >= 0) & (entries < self.amps.size)]
            columns = entries % size
        if self.kept_scale is not None:
            # each hit polygon, once per entry it loses, by how many it keeps
            return entries, columns, self.kept_scale[m - np.bincount(columns)[columns]], None
        # Weigh each hit polygon anew, once per entry it loses, from a copy of
        # its column with all its lost entries zeroed.  A C-ordered copy of
        # two or more columns sums row by row, as the whole block does; one
        # column sums pairwise, as a one-polygon block.
        hit = columns[:1] if size == 1 else columns
        amps2 = self.amps2.reshape(-1)  # a view: amps2 is C-contiguous
        saved = amps2[entries]
        amps2[entries] = 0.0
        try:
            kept = self.amps2.take(np.repeat(hit, 2) if hit.size == 1 < size else hit, axis=1)
        finally:
            amps2[entries] = saved
        return entries, hit, _inverse_weights(kept)[: hit.size], None

    def reflect(self, vec: np.ndarray, out: np.ndarray, patch: tuple | None = None) -> None:
        """Reflect the block's entries (see :func:`_reflect`): of ``vec`` into
        ``out`` when the block is read in place, else of ``gathered`` into
        ``terms``.  ``patch`` is None for a clean reflection, else
        ``(entries, hit, hit_scale, split)``: the detached entries to leave
        out of the polygon sums, as flat indices into the (m, P) arrays
        (None when no polygon keeps any of its entries); polygons that lose
        entries, and their factors 2/weight over the entries they keep (the
        others take ``scale``); and the split-off entries as an index of
        the (m, P) arrays, or None for broken vertices, which
        :func:`_reflect` writes itself."""
        sv, res = self.gathered, self.terms
        if sv is None:
            sv, res = (_entries(a[: self.amps.size], self.amps.shape, None) for a in (vec, out))
        terms = np.multiply(self.conj_amps, sv, out=self.terms)
        if patch is None:
            factor = _polygon_sums(terms)
            factor *= 2.0
        else:
            # The clean pass, renormalized: a detached entry leaves its
            # polygon's sum as it left its weight.
            entries, hit, hit_scale, split = patch
            if entries is not None:
                terms.reshape(-1)[entries] = 0.0  # a view: terms is C-contiguous
            factor = _polygon_sums(terms)
            renormalized = factor[hit] * hit_scale
            factor *= self.scale
            factor[hit] = renormalized
        np.multiply(factor, self.amps, out=res)
        res -= sv
        if patch is not None and split is not None:
            # a split-off entry reflects as a singleton polygon
            res[split] = sv[split]


def _polygon_sums(entries: np.ndarray) -> np.ndarray:
    """Per-polygon sums of an (m, P) block, as a new array: the first slot
    plus the sum of the others, added last, in place (a float sum commutes).
    The CLI outputs, compared byte for byte, depend on this order."""
    sums = np.add.reduce(entries[1:], axis=0)
    sums += entries[0]
    return sums


def _inverse_weights(amps2: np.ndarray) -> np.ndarray:
    """2/weight per polygon of an (m, P) block of |amplitude|^2, the weight
    being the polygon sum of the entries it keeps (detached ones are 0); 0
    for a polygon with nothing left."""
    scale = _polygon_sums(amps2)
    np.divide(2.0, scale, out=scale, where=scale > 0.0)
    return scale


class _Layout(NamedTuple):
    """A compiled tessellation over all its cover's vertices.  ``perm`` lists
    the ``covered`` entries of its ``blocks``, by ascending polygon size, then
    every vertex it leaves uncovered, and ``inverse`` is each vertex's place
    in it; ``gathered`` and ``terms``, a reflection's input and result in
    that order, are reused by every reflection, so a layout belongs to the
    thread that compiled it.  All but ``terms`` are None when the one block
    is read in place, its tail the vertices from ``covered`` on."""

    covered: int
    blocks: tuple[_Block, ...]
    perm: np.ndarray | None
    inverse: np.ndarray | None
    gathered: np.ndarray | None
    terms: np.ndarray


class _Layouts(threading.local):
    def __init__(self):
        # a cover's layouts and whether its step promotes to complex128; the
        # value holds no reference to the cover, so the weak key can die
        self.by_cover: "WeakKeyDictionary[TessellatedGraph, tuple[tuple[_Layout, ...], bool]]" = WeakKeyDictionary()


#: Each thread's compiled layouts, since every reflection writes its blocks' scratch.
_layouts = _Layouts()


def _one_amplitude(amps: np.ndarray) -> np.float64 | None:
    """The one real amplitude that all the (m, P) entries ``amps`` of a
    block hold; None when they differ or are complex.  Also None for a
    one-polygon block: ``_polygon_sums`` adds its one column pairwise from
    nine entries on, so a weight counted from equal terms added one after
    another need not match it to the bit."""
    if amps.dtype != np.float64 or amps.shape[1] < 2:
        return None
    return amps[0, 0] if (amps == amps[0, 0]).all() else None


def _kept_scale(amp: np.float64, m: int) -> np.ndarray:
    """Entry k: 2/weight of a polygon of m entries of amplitude ``amp`` that
    keeps k of them (0 for k = 0), the weight being k equal |amp|^2 added
    one after another.  ``_polygon_sums`` of a block of two or more polygons
    adds each column so, whatever slots hold the lost entries' zeros, since
    adding 0.0 is exact."""
    scale = np.zeros(m + 1)
    np.divide(2.0, np.cumsum(np.full(m, amp * amp)), out=scale[1:])
    return scale


def _entries(flat: np.ndarray, shape: tuple[int, int], index: np.ndarray | None) -> np.ndarray:
    """A block's (m, P) entries of a flat per-entry array: gathered through
    its (m, P) entry ``index``, or a view when the block is every polygon of
    one size m, polygon c holding entries c*m..c*m+m-1 (``index`` None)."""
    return flat.reshape(shape[::-1]).T if index is None else flat[index]


def _flatten(tess: Tessellation, num_vertices: int) -> _Layout:
    """The layout of ``tess`` over the ``num_vertices`` vertices of its
    cover: one block per polygon size, each holding its polygons in
    tessellation order, float64 when every amplitude of ``tess`` is real
    and complex128 otherwise; only what it keeps is copied.  ``Tessellation``
    refuses any entry with |a|^2 below the least normal float, so each
    block a plan leaves has a finite renormalizing factor."""
    vertices, amps, starts = tess.vertices, tess.amplitudes, tess.starts
    if not amps.imag.any():
        amps = amps.real
    covered, m = vertices.size, tess._uniform_size
    if m is not None:
        groups = [(slice(None), (m, starts.size - 1), None)]
    else:
        groups = []
        for size in _sorted_distinct(tess.sizes).tolist():
            polygons = np.flatnonzero(tess.sizes == size)
            groups.append((polygons, (size, polygons.size), starts[:-1][polygons] + np.arange(size)[:, None]))
    # The vertices are distinct and non-negative, so they are 0..E-1 in
    # polygon order exactly when they ascend strictly up to E - 1.
    in_place = covered == 0 or (
        m is not None and vertices[-1] == covered - 1 and bool((vertices[1:] > vertices[:-1]).all()))
    perm = inverse = gathered = None
    if not in_place:
        perm = np.empty(num_vertices, dtype=np.intp)
        uncovered = np.ones(num_vertices, dtype=bool)
        uncovered[vertices] = False
        perm[covered:] = np.flatnonzero(uncovered)
        gathered = np.empty(num_vertices, dtype=amps.dtype)
    terms = np.empty(covered if in_place else num_vertices, dtype=amps.dtype)
    blocks, offset = [], 0
    for polygons, shape, index in groups:
        at = slice(offset, offset + shape[0] * shape[1])
        if perm is not None:
            perm[at].reshape(shape)[...] = _entries(vertices, shape, index)
        block_amps = _entries(amps, shape, index)
        one = _one_amplitude(block_amps)
        if one is None:
            # C-ordered, so that _polygon_sums adds amps2 row by row
            block_amps = np.ascontiguousarray(block_amps)
            block_amps2, kept_scale = block_amps.real**2 + block_amps.imag**2, None
        else:
            block_amps = np.broadcast_to(one, shape)
            block_amps2, kept_scale = None, _kept_scale(one, shape[0])
        blocks.append(_Block(
            polygons=polygons, offset=offset, amps=block_amps,
            conj_amps=block_amps if amps.dtype == np.float64 else np.conj(block_amps),
            amps2=block_amps2, kept_scale=kept_scale, terms=terms[at].reshape(shape),
            gathered=None if gathered is None else gathered[at].reshape(shape),
        ))
        offset = at.stop
    if perm is not None:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(num_vertices)
    return _Layout(covered, tuple(blocks), perm, inverse, gathered, terms)


def _compiled(tg: TessellatedGraph) -> tuple[tuple[_Layout, ...], bool]:
    """The layouts of ``tg``'s tessellations in index order (see
    :func:`_flatten`), and whether any is complex, looked up once per step
    and built once per thread and cover."""
    compiled = _layouts.by_cover.get(tg)
    if compiled is None:
        layouts = tuple(_flatten(tess, tg.num_vertices) for tess in tg.tessellations)
        compiled = (layouts, any(layout.terms.dtype == np.complex128 for layout in layouts))
        _layouts.by_cover[tg] = compiled
    return compiled


def _reflect(layout: _Layout, vec: np.ndarray, out: np.ndarray,
             broken: np.ndarray | None = None, breaks=None) -> np.ndarray:
    """out = (2 sum_j |P_j><P_j| - I) vec for the tessellation compiled to
    ``layout``, optionally perturbed, and return ``out``.  ``out`` must not
    alias ``vec``.

    Entries detach from their polygon at the ascending ``broken`` vertices,
    or are split off the polygons ``breaks.broken`` (all their entries, or
    entry ``breaks.lone_slot[i]`` of polygon ``breaks.broken[i]`` when
    ``lone_slot`` is set), where ``breaks`` is the tessellation's entry in a
    plan's ``polygon_breaks``; a plan sets at most one of the two.  With any
    break, every polygon is renormalized by its survivor weight (the sum of
    |amplitude|^2 over entries not detached).  A broken vertex, like one no
    polygon covers, picks up the -I term; a split-off entry reflects as a
    singleton polygon and picks up +1.  A real layout reflects the real and
    imaginary parts of a complex vector one after the other.
    """
    covered, blocks, perm, inverse, gathered, terms = layout
    if vec.dtype != terms.dtype:
        for part in ("real", "imag"):
            _reflect(layout, getattr(vec, part), getattr(out, part), broken, breaks)
        return out
    if perm is None:
        src, dst, keys = vec, out, broken
    else:
        # Every caller has checked the state size against the cover, so the
        # indices are in range; "clip" spares take its bounds-check buffer.
        vec.take(perm, out=gathered, mode="clip")
        src, dst, keys = gathered, terms, None if broken is None else inverse.take(broken)
    if covered != src.size:
        # the vertices that no polygon covers pick up -I
        np.negative(src[covered:], out=dst[covered:])
    for block in blocks:
        patch = None
        if breaks is not None:
            patch = block.split(breaks.broken, breaks.lone_slot)
        elif broken is not None:
            patch = block.lost(keys)
        block.reflect(vec, out, patch)
    if perm is not None:
        terms.take(inverse, out=out, mode="clip")
    if broken is not None:
        # a broken vertex leaves the cover and picks up -I
        out[broken] = -vec[broken]
    return out


def step(tg: TessellatedGraph, state: WalkState, plan=None) -> WalkState:
    """One walk step: apply every tessellation of the cover in index order,
    each perturbed by ``plan`` when given.

    ``plan`` is a :class:`sqwsim.noise.BreakPlan` sampled from ``tg`` itself
    (a plan drawn from another cover, even an equal one, is refused), read
    only through its ``broken_vertices``, which it carries sorted, and
    ``polygon_breaks`` (``sqwsim.noise`` imports this module, so the type is
    not imported here): a broken vertex detaches from its polygon in every
    tessellation and leaves the cover, and the split-off entries of a broken
    polygon detach and become singletons.  An empty plan takes exactly the
    clean path.  The step walks in the dtype of the state's buffer, promoted
    once to complex128 when a tessellation has complex amplitudes, so only
    complex tessellations run in complex128.  Reflections alternate between
    two buffers, so a step allocates at most two state vectors.
    """
    if plan is not None and plan.cover is not tg:
        raise ValueError("plan was sampled from a different cover")
    vec = state._amps
    if vec.size != tg.num_vertices:
        raise ValueError(f"state has {vec.size} entries, graph has {tg.num_vertices} vertices")
    layouts, promote = _compiled(tg)
    if promote:
        vec = vec.astype(np.complex128, copy=False)
    broken = None if plan is None or not plan.broken_vertices.size else plan.broken_vertices
    breaks = {} if plan is None else plan.polygon_breaks
    buffers = [np.empty_like(vec) for _ in range(min(2, len(layouts)))]
    cur = vec
    for t_idx, layout in enumerate(layouts):
        cur = _reflect(layout, cur, buffers[t_idx % 2], broken, breaks.get(t_idx))
    return WalkState._written(cur)


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
