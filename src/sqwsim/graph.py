"""Graphs, polygons, tessellations, and tessellation covers.

A tessellation is a set of polygons (cliques carrying unit-norm amplitude
vectors) with pairwise disjoint vertex sets.  A tessellation cover is a list
of tessellations whose within-polygon edges jointly cover every edge of the
underlying graph; the staggered walk operator is built from it in
:mod:`sqwsim.evolve`.  A cover also generates a graph, the union of its
polygons' cliques.  The grid of cliques and the coined-walk conversion take
that graph, so they are valid by construction; :func:`validate_cover`
checks a cover read from a file against the graph read with it.

Covers are stored as flat arrays.  A tessellation keeps its covered vertices
in polygon order, the polygon boundaries and the amplitudes; a graph keeps
its edges as a sorted (E, 2) array.  The ``Polygon`` objects of a
tessellation and the frozenset of a graph's edges are built only when read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Tolerance on unit-norm checks for polygon amplitude vectors.
NORM_TOL = 1e-12
#: The least |a|^2 of a polygon entry (the least normal float64): 2 / |a|^2 stays finite.
_MIN_AMP2 = float(np.finfo(np.float64).tiny)
#: The most vertices whose pair keys u * n + v fit in an int64 (n * n - 1 < 2**63).
_MAX_VERTICES = math.isqrt(2**63)


class ParseError(ValueError):
    """Malformed graph or cover file.  Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an integer array, ascending.

    A sort and a neighbour compare: on numpy 2.4, ``np.unique`` takes about
    25x longer on 40,000 integers.
    """
    ordered = np.sort(values, axis=None)
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered if fresh.all() else ordered[fresh]


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as contiguous int64, refusing a value the cast changes (0.5, 1e20; not 2.0)."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ints = np.asarray(given, dtype=np.int64, order="C")
    if given.dtype.kind != "i" and not np.array_equal(ints, given):
        bad = given.ravel()[np.flatnonzero(ints.ravel() != given.ravel())[0]]
        raise ValueError(f"{what} must be integers, got {bad.item()!r}")
    return ints


@dataclass(frozen=True, eq=False, init=False)
class SimpleGraph:
    """Undirected simple graph on vertices 0..num_vertices-1.

    ``edge_array`` holds each edge once as a row (u, v) with u < v, rows in
    ascending order, and ``_keys`` the matching sorted keys
    u * num_vertices + v, which fit in an int64 because a graph has at most
    3,037,000,499 vertices.  Any iterable of pairs, or an (E, 2) integer
    array, is normalized on construction, and a pair given twice is kept
    once.  ``edges`` gives the same edges as a frozenset of tuples, built on
    first read.
    """

    num_vertices: int
    edge_array: np.ndarray

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        n = int(num_vertices)
        if not 0 <= n <= _MAX_VERTICES:
            raise ValueError(f"num_vertices must be in [0, {_MAX_VERTICES}], got {n}")
        pairs = _as_int64(edges if isinstance(edges, np.ndarray) else list(edges), "edge endpoints")
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop at vertex {int(lo[loops[0]])}")
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            a, b = pairs[np.flatnonzero((lo < 0) | (hi >= n))[0]].tolist()
            raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        keys = _sorted_distinct(lo * n + hi)
        edge_array = np.empty((keys.size, 2), dtype=np.int64)
        np.divmod(keys, max(n, 1), out=(edge_array[:, 0], edge_array[:, 1]))
        keys.setflags(write=False)
        edge_array.setflags(write=False)
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edge_array", edge_array)
        object.__setattr__(self, "_keys", keys)

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.edge_array.tolist()))

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = sorted((int(u), int(v)))
        if lo < 0 or hi >= self.num_vertices:
            return False
        key = lo * self.num_vertices + hi
        slot = int(np.searchsorted(self._keys, key))
        return slot < self._keys.size and int(self._keys[slot]) == key

    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as (tails, heads), sorted by tail, then head."""
        e = self.edge_array
        tails = np.concatenate((e[:, 0], e[:, 1]))
        heads = np.concatenate((e[:, 1], e[:, 0]))
        order = np.lexsort((heads, tails))
        return tails[order], heads[order]


def _checked_polygons(vertices, starts, amplitudes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat arrays of ``Tessellation``'s layout, checked as a whole and
    returned read-only as int64, int64 and complex128.  The one check of
    polygon entries: each needs |a|^2 >= _MIN_AMP2, since a break could
    otherwise leave a block with no norm to renormalize.  That refuses 0,
    1e-170 (its square underflows) and 1e-155 (2 / |a|^2 overflows)."""
    verts = _as_int64(vertices, "vertex indices")
    starts = _as_int64(starts, "polygon starts")
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    if verts.ndim != 1 or amps.shape != verts.shape:
        raise ValueError("vertices and amplitudes must be parallel 1-d arrays")
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0 or starts[-1] != verts.size:
        raise ValueError("polygon starts must run from 0 to the number of entries")
    if np.any(starts[1:] <= starts[:-1]):
        raise ValueError("every polygon needs at least one vertex")
    if verts.size:
        if verts.min() < 0:
            raise ValueError("negative vertex index in polygon")
        if _sorted_distinct(verts).size != verts.size:
            polygon_of = np.repeat(np.arange(starts.size - 1), np.diff(starts))
            keyed = polygon_of * (int(verts.max()) + 1) + verts
            if _sorted_distinct(keyed).size != keyed.size:
                raise ValueError("duplicate vertex in polygon")
            raise ValueError("tessellation polygons overlap")
        amps2 = amps.real**2 + amps.imag**2
        norm2 = np.add.reduceat(amps2, starts[:-1])
        bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))
        if bad.size:
            raise ValueError(f"polygon amplitudes have squared norm {float(norm2[bad[0]])!r}, expected 1")
        bad = np.flatnonzero(~(amps2 >= _MIN_AMP2))
        if bad.size:
            vertex = int(verts[bad[0]])
            raise ValueError(f"polygon entry at vertex {vertex} has zero amplitude (|a|^2 < {_MIN_AMP2:.2g})")
    for arr in (verts, starts, amps):
        arr.setflags(write=False)
    return verts, starts, amps


@dataclass(frozen=True, eq=False)
class Polygon:
    """A clique with a unit-norm amplitude vector over its vertices.

    ``vertices`` and ``amplitudes`` are parallel 1-d arrays; the induced state
    is sum_i amplitudes[i] |vertices[i]>.  ``_checked_polygons`` checks them:
    distinct integer vertices, unit norm within NORM_TOL, no zero entry.
    """

    vertices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        verts, _, amps = _checked_polygons(self.vertices, [0, np.size(self.vertices)], self.amplitudes)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def uniform(cls, vertices: Iterable[int]) -> "Polygon":
        """Uniform real amplitudes 1/sqrt(m) over m vertices; the checker refuses m = 0."""
        verts = np.asarray(list(vertices))
        amps = np.full(verts.shape, 1.0 / math.sqrt(verts.size or 1), dtype=np.complex128)
        return cls(verts, amps)

    @classmethod
    def _unchecked(cls, vertices: np.ndarray, amplitudes: np.ndarray) -> "Polygon":
        """A polygon over read-only int64 and complex128 arrays that a
        tessellation has already checked; skips ``__post_init__``."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", vertices)
        object.__setattr__(poly, "amplitudes", amplitudes)
        return poly

    @property
    def size(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True, eq=False, init=False)
class Tessellation:
    """Polygons with pairwise disjoint vertex sets, stored as flat arrays.

    ``vertices`` lists the covered vertices polygon by polygon: polygon j
    holds ``vertices[starts[j]:starts[j + 1]]``, with the parallel slice of
    ``amplitudes``.  Build a tessellation from ``Polygon`` objects, or from
    the three arrays with :meth:`from_arrays`; either way the arrays are
    checked as a whole, and ``polygons`` gives the ``Polygon`` sequence,
    built on first read.  A tessellation may leave vertices of the ambient
    graph uncovered; its reflection acts on them as -I.
    """

    vertices: np.ndarray
    starts: np.ndarray
    amplitudes: np.ndarray

    def __init__(self, polygons: Iterable[Polygon] = ()):
        polys = tuple(polygons)
        starts = np.concatenate(([0], np.cumsum([p.size for p in polys], dtype=np.int64)))
        if polys:
            verts = np.concatenate([p.vertices for p in polys])
            amps = np.concatenate([p.amplitudes for p in polys])
        else:
            verts = np.empty(0, dtype=np.int64)
            amps = np.empty(0, dtype=np.complex128)
        self._store(verts, starts, amps)
        self.__dict__["polygons"] = polys

    @classmethod
    def from_arrays(cls, vertices: np.ndarray, starts: np.ndarray, amplitudes: np.ndarray) -> "Tessellation":
        """A tessellation over flat arrays laid out as the class docstring says."""
        tess = cls.__new__(cls)
        tess._store(vertices, starts, amplitudes)
        return tess

    def _store(self, vertices, starts, amplitudes) -> None:
        checked = _checked_polygons(vertices, starts, amplitudes)
        for name, arr in zip(("vertices", "starts", "amplitudes"), checked):
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def polygons(self) -> tuple[Polygon, ...]:
        """The polygons in order, as ``Polygon`` views of the arrays."""
        bounds = self.starts.tolist()
        return tuple(
            Polygon._unchecked(self.vertices[a:b], self.amplitudes[a:b])
            for a, b in zip(bounds, bounds[1:])
        )

    @property
    def num_polygons(self) -> int:
        return int(self.starts.size - 1)

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.diff(self.starts)
        sizes.setflags(write=False)
        return sizes


@dataclass(frozen=True, eq=False)
class TessellatedGraph:
    """A graph together with an ordered list of tessellations."""

    graph: SimpleGraph
    tessellations: tuple[Tessellation, ...]

    def __post_init__(self):
        tess = tuple(self.tessellations)
        n = self.graph.num_vertices
        for t_idx, t in enumerate(tess):
            if t.vertices.size and int(t.vertices.max()) >= n:
                raise ValueError(f"tessellation {t_idx} references vertex {int(t.vertices.max())} >= {n}")
        object.__setattr__(self, "tessellations", tess)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_tessellations(self) -> int:
        return len(self.tessellations)


@dataclass(frozen=True)
class GridSpec:
    """Parameters of the toroidal grid of cliques: an n-by-n torus of cells,
    each cell a clique on 4q vertices, consecutive cells joined by 2q-cliques.
    """

    n: int
    q: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid width n must be at least 2")
        if self.q < 1:
            raise ValueError("clique parameter q must be at least 1")

    @property
    def num_vertices(self) -> int:
        return 4 * self.q * self.n * self.n

    @property
    def cell_size(self) -> int:
        return 4 * self.q

    def vertex_index(self, x: int, y: int, k: int) -> int:
        """Flat index of local slot k in cell (x, y); cell coordinates wrap mod n."""
        if not 0 <= k < self.cell_size:
            raise ValueError(f"local slot {k} out of range for cell size {self.cell_size}")
        return ((x % self.n) * self.n + (y % self.n)) * self.cell_size + k

    def cell_slice(self, x: int, y: int) -> slice:
        base = ((x % self.n) * self.n + (y % self.n)) * self.cell_size
        return slice(base, base + self.cell_size)


@dataclass(frozen=True)
class CoverReport:
    """Outcome of validate_cover, with enough detail to name each violation."""

    clique_ok: bool
    bad_polygons: tuple[tuple[int, int], ...]
    partition_ok: bool
    uncovered_vertices: tuple[tuple[int, int], ...]
    edge_cover_ok: bool
    uncovered_edges: tuple[tuple[int, int], ...]
    tessellation_count: int

    @property
    def ok(self) -> bool:
        return self.clique_ok and self.partition_ok and self.edge_cover_ok

    def summary(self) -> str:
        lines = [f"tessellations: {self.tessellation_count}"]
        lines.append(f"polygons are cliques: {'ok' if self.clique_ok else 'FAIL'}")
        for t_idx, p_idx in self.bad_polygons:
            lines.append(f"  non-clique polygon {p_idx} in tessellation {t_idx}")
        lines.append(f"each tessellation partitions the vertices: {'ok' if self.partition_ok else 'FAIL'}")
        for t_idx, v in self.uncovered_vertices:
            lines.append(f"  vertex {v} uncovered in tessellation {t_idx}")
        lines.append(f"union of polygon edges covers the graph: {'ok' if self.edge_cover_ok else 'FAIL'}")
        for u, v in self.uncovered_edges:
            lines.append(f"  edge ({u}, {v}) not inside any polygon")
        lines.append(f"cover valid: {'yes' if self.ok else 'NO'}")
        return "\n".join(lines)


def _polygon_pairs(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions (i, j), i < j, of every two entries of one polygon,
    for polygons bounded by ``starts``; polygon by polygon, i ascending."""
    sizes = np.diff(starts)
    entries = np.arange(starts[-1])
    later = np.repeat(starts[1:], sizes) - entries - 1
    first = np.repeat(entries, later)
    run_start = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(run_start, later)
    return first, second


def _clique_cover(num_vertices: int, tessellations: tuple[Tessellation, ...]) -> TessellatedGraph:
    """``tessellations`` over the graph they generate: its edges are the
    vertex pairs inside each polygon, so the cover is valid by construction."""
    pairs = []
    for tess in tessellations:
        first, second = _polygon_pairs(tess.starts)
        pairs.append(np.stack((tess.vertices[first], tess.vertices[second]), axis=1))
    return TessellatedGraph(SimpleGraph(num_vertices, np.concatenate(pairs)), tessellations)


def make_grid_of_cliques(spec: GridSpec) -> TessellatedGraph:
    """Build the toroidal grid of 4q-cliques with its two-tessellation cover.

    Tessellation 0 holds the n*n cell cliques (size 4q, cell (x, y) at
    polygon index x*n + y).  Tessellation 1 holds the 2n*2 link cliques
    (size 2q) joining each cell to its +x and +y neighbours: the link in
    direction +x from cell (x, y) pairs local slots [0, q) with slots
    [2q, 3q) of cell (x+1, y); the link in direction +y pairs [q, 2q) with
    [3q, 4q) of cell (x, y+1).

    Both tessellations are generated as blocks of index arithmetic, and the
    graph is the one they generate.
    """
    n, q = spec.n, spec.q
    cell = spec.cell_size
    num = spec.num_vertices
    cell_index = np.arange(n * n, dtype=np.int64)
    x, y = np.divmod(cell_index, n)
    base = cell_index[:, None] * cell
    right = (((x + 1) % n) * n + y)[:, None] * cell
    up = (x * n + (y + 1) % n)[:, None] * cell
    k = np.arange(q, dtype=np.int64)
    links = np.empty((n * n, 2, 2, q), dtype=np.int64)
    links[:, 0, 0] = base + k
    links[:, 0, 1] = right + 2 * q + k
    links[:, 1, 0] = base + q + k
    links[:, 1, 1] = up + 3 * q + k

    cells = Tessellation.from_arrays(
        np.arange(num, dtype=np.int64),
        np.arange(0, num + 1, cell, dtype=np.int64),
        np.full(num, 1.0 / math.sqrt(cell), dtype=np.complex128),
    )
    link_tess = Tessellation.from_arrays(
        links.ravel(),
        np.arange(0, num + 1, 2 * q, dtype=np.int64),
        np.full(num, 1.0 / math.sqrt(2 * q), dtype=np.complex128),
    )
    return _clique_cover(num, (cells, link_tess))


def validate_cover(tg: TessellatedGraph) -> CoverReport:
    """Check the three cover conditions and report every violation found."""
    g = tg.graph
    n = g.num_vertices
    edge_covered = np.zeros(g.num_edges, dtype=bool)
    bad_polygons = []
    uncovered_vertices = []

    for t_idx, tess in enumerate(tg.tessellations):
        counts = np.bincount(tess.vertices, minlength=n)
        first, second = _polygon_pairs(tess.starts)
        u, v = tess.vertices[first], tess.vertices[second]
        pair_keys = np.minimum(u, v) * n + np.maximum(u, v)
        slot = np.searchsorted(g._keys, pair_keys)
        found = slot < g.num_edges
        found[found] = g._keys[slot[found]] == pair_keys[found]
        edge_covered[slot[found]] = True
        polygon_of = np.searchsorted(tess.starts, first[~found], side="right") - 1
        bad_polygons.extend((t_idx, p) for p in _sorted_distinct(polygon_of).tolist())
        uncovered_vertices.extend((t_idx, v) for v in np.flatnonzero(counts == 0).tolist())

    uncovered_edges = tuple(map(tuple, g.edge_array[~edge_covered].tolist()))

    return CoverReport(
        clique_ok=not bad_polygons,
        bad_polygons=tuple(bad_polygons),
        partition_ok=not uncovered_vertices,
        uncovered_vertices=tuple(uncovered_vertices),
        edge_cover_ok=not uncovered_edges,
        uncovered_edges=uncovered_edges,
        tessellation_count=tg.num_tessellations,
    )


def coined_to_staggered(g: SimpleGraph) -> tuple[TessellatedGraph, tuple[tuple[int, int], ...]]:
    """Convert a graph hosting a coined walk into an equivalent two-tessellation cover.

    Each vertex v of degree d becomes a d-clique on the arcs leaving v (the
    coin tessellation); each edge {u, v} becomes a 2-clique pairing arc
    (u, v) with arc (v, u) (the shift tessellation).  Arcs are indexed
    per-vertex in ascending neighbour order.  Returns the cover and the arc
    table mapping each new vertex to its (tail, head) pair.
    """
    n = g.num_vertices
    tails, heads = g._arcs()
    degrees = np.bincount(tails, minlength=n)
    if np.any(degrees == 0):
        raise ValueError("conversion requires minimum degree 1 (no isolated vertices)")

    num_arcs = tails.size
    arc_keys = tails * n + heads
    u, v = g.edge_array[:, 0], g.edge_array[:, 1]
    shift_pairs = np.stack((np.searchsorted(arc_keys, u * n + v), np.searchsorted(arc_keys, v * n + u)), axis=1)
    coin = Tessellation.from_arrays(
        np.arange(num_arcs),
        np.concatenate(([0], np.cumsum(degrees))),
        np.repeat(1.0 / np.sqrt(degrees), degrees),
    )
    shift = Tessellation.from_arrays(
        shift_pairs.ravel(),
        np.arange(0, num_arcs + 1, 2),
        np.full(num_arcs, 1.0 / math.sqrt(2)),
    )
    return _clique_cover(num_arcs, (coin, shift)), tuple(zip(tails.tolist(), heads.tolist()))


def _significant_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def read_graph(text: str) -> SimpleGraph:
    """Parse the plain edge-list format: a "V E" header line, then E lines "u v".

    Blank lines and lines starting with '#' are ignored.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "empty graph file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(header_no, f"expected 'V E' header, got {header!r}")
    try:
        num_vertices, num_edges = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(header_no, f"non-integer header fields in {header!r}") from None
    if num_vertices < 0 or num_edges < 0:
        raise ParseError(header_no, "vertex and edge counts must be non-negative")
    if num_vertices > _MAX_VERTICES:
        raise ParseError(header_no, f"at most {_MAX_VERTICES} vertices are supported, got {num_vertices}")

    body = lines[1:]
    if len(body) != num_edges:
        where = body[num_edges][0] if len(body) > num_edges else header_no
        raise ParseError(where, f"expected {num_edges} edge lines, found {len(body)}")

    seen: set[tuple[int, int]] = set()
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex in {line!r}") from None
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ParseError(line_no, f"edge ({u}, {v}) out of range for {num_vertices} vertices")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(line_no, f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
    return SimpleGraph(num_vertices, frozenset(seen))


def read_cover(text: str, g: SimpleGraph) -> TessellatedGraph:
    """Parse a cover file: each line "t v1 v2 ... vm" adds a uniform polygon
    to tessellation t.  Tessellation indices must be contiguous from 0."""
    by_tess: dict[int, tuple[list[int], list[int], set[int]]] = {}
    first_line_of: dict[int, int] = {}
    for line_no, line in _significant_lines(text):
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(line_no, f"expected 't v1 ... vm', got {line!r}")
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}") from None
        t_idx, verts = fields[0], fields[1:]
        if t_idx < 0:
            raise ParseError(line_no, f"negative tessellation index {t_idx}")
        polygon = set(verts)
        if len(polygon) != len(verts):
            raise ParseError(line_no, "duplicate vertex within polygon")
        for v in verts:
            if not 0 <= v < g.num_vertices:
                raise ParseError(line_no, f"vertex {v} out of range for {g.num_vertices} vertices")
        covered, sizes, seen = by_tess.setdefault(t_idx, ([], [], set()))
        if not seen.isdisjoint(polygon):
            vertex = next(v for v in verts if v in seen)
            raise ParseError(line_no, f"vertex {vertex} already covered in tessellation {t_idx}")
        seen |= polygon
        covered.extend(verts)
        sizes.append(len(verts))
        first_line_of.setdefault(t_idx, line_no)

    if not by_tess:
        raise ParseError(1, "empty cover file")
    top = max(by_tess)
    for t_idx in range(top + 1):
        if t_idx not in by_tess:
            raise ParseError(
                first_line_of[top], f"tessellation indices not contiguous: {t_idx} missing"
            )

    tessellations = []
    for t_idx in range(top + 1):
        covered, sizes, _ = by_tess[t_idx]
        sizes = np.array(sizes, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        amplitudes = np.repeat(1.0 / np.sqrt(sizes), sizes)
        tessellations.append(Tessellation.from_arrays(covered, starts, amplitudes))
    return TessellatedGraph(g, tuple(tessellations))


def write_cover(tg: TessellatedGraph) -> str:
    """Serialize a uniform-amplitude cover in canonical form.

    Canonical form sorts vertices ascending within each polygon and orders
    polygons by their least vertex.  The file format carries no amplitudes,
    and a tessellation only as its polygons' lines, so non-uniform covers and
    covers with no tessellation or an empty one, which ``read_cover`` could
    not read back, are rejected.
    """
    if not tg.tessellations or min(t.num_polygons for t in tg.tessellations) == 0:
        raise ValueError("cover files need at least one tessellation, and no empty one")
    out_lines = []
    for t_idx, tess in enumerate(tg.tessellations):
        rows = []
        for poly in tess.polygons:
            expected = 1.0 / math.sqrt(poly.size)
            if np.max(np.abs(poly.amplitudes - expected)) > NORM_TOL:
                raise ValueError("cover files carry only uniform-amplitude polygons")
            rows.append(sorted(int(v) for v in poly.vertices))
        rows.sort(key=lambda r: r[0])
        for row in rows:
            out_lines.append(" ".join(str(x) for x in [t_idx] + row))
    return "\n".join(out_lines) + "\n"


def write_graph(g: SimpleGraph) -> str:
    """Serialize a graph in the edge-list format with edges sorted."""
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_array.tolist())
    return "\n".join(lines) + "\n"
