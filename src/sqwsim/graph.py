"""Graphs, polygons, tessellations, and tessellation covers.

A tessellation is a set of polygons (cliques carrying unit-norm amplitude
vectors) with pairwise disjoint vertex sets.  A tessellation cover is a list
of tessellations whose within-polygon edges jointly cover every edge of the
underlying graph.  The staggered walk operator is built from these covers in
:mod:`sqwsim.evolve`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

#: Tolerance on unit-norm checks for polygon amplitude vectors.
NORM_TOL = 1e-12


class ParseError(ValueError):
    """Malformed graph or cover file.  Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Undirected simple graph on vertices 0..num_vertices-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; any iterable
    of pairs is normalized on construction.
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.num_vertices
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        norm = set()
        for edge in self.edges:
            u, v = edge
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def degree_sequence(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists with each neighborhood sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


@dataclass(frozen=True, eq=False)
class Polygon:
    """A clique with a unit-norm amplitude vector over its vertices.

    ``vertices`` and ``amplitudes`` are parallel arrays; the induced state is
    sum_i amplitudes[i] |vertices[i]>.  Vertices must be distinct and the
    amplitude vector must have unit norm within NORM_TOL.
    """

    vertices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        verts = np.ascontiguousarray(self.vertices, dtype=np.int64)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if verts.ndim != 1 or verts.size == 0:
            raise ValueError("a polygon needs a non-empty 1-d vertex array")
        if amps.shape != verts.shape:
            raise ValueError("vertices and amplitudes must be parallel arrays")
        if np.unique(verts).size != verts.size:
            raise ValueError("duplicate vertex in polygon")
        if np.min(verts) < 0:
            raise ValueError("negative vertex index in polygon")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"polygon amplitudes have squared norm {norm2!r}, expected 1")
        verts.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def uniform(cls, vertices: Iterable[int]) -> "Polygon":
        """Uniform real amplitudes 1/sqrt(m) over m vertices."""
        verts = np.asarray(list(vertices), dtype=np.int64)
        amps = np.full(verts.shape, 1.0 / math.sqrt(verts.size), dtype=np.complex128)
        return cls(verts, amps)

    @property
    def size(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True, eq=False)
class Tessellation:
    """Polygons with pairwise disjoint vertex sets.

    ``covers_all_vertices`` records whether the polygons partition the whole
    vertex set of the ambient graph; perturbed tessellations may leave
    vertices uncovered.
    """

    polygons: tuple[Polygon, ...]
    covers_all_vertices: bool = True

    def __post_init__(self):
        polys = tuple(self.polygons)
        all_verts = np.concatenate([p.vertices for p in polys]) if polys else np.empty(0, np.int64)
        if np.unique(all_verts).size != all_verts.size:
            raise ValueError("tessellation polygons overlap")
        object.__setattr__(self, "polygons", polys)

    @property
    def num_polygons(self) -> int:
        return len(self.polygons)

    def covered_vertices(self) -> np.ndarray:
        if not self.polygons:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([p.vertices for p in self.polygons])


@dataclass(frozen=True, eq=False)
class TessellatedGraph:
    """A graph together with an ordered list of tessellations.

    ``pristine`` marks covers straight from a generator or file, as opposed
    to covers perturbed by noise operations.
    """

    graph: SimpleGraph
    tessellations: tuple[Tessellation, ...]
    pristine: bool = True

    def __post_init__(self):
        tess = tuple(self.tessellations)
        n = self.graph.num_vertices
        for t_idx, t in enumerate(tess):
            cov = t.covered_vertices()
            if cov.size and int(cov.max()) >= n:
                raise ValueError(f"tessellation {t_idx} references vertex {int(cov.max())} >= {n}")
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
    duplicated_vertices: tuple[tuple[int, int], ...]
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
        for t_idx, v in self.duplicated_vertices:
            lines.append(f"  vertex {v} covered more than once in tessellation {t_idx}")
        lines.append(f"union of polygon edges covers the graph: {'ok' if self.edge_cover_ok else 'FAIL'}")
        for u, v in self.uncovered_edges:
            lines.append(f"  edge ({u}, {v}) not inside any polygon")
        lines.append(f"cover valid: {'yes' if self.ok else 'NO'}")
        return "\n".join(lines)


def _clique_pairs(poly: Polygon) -> Iterator[tuple[int, int]]:
    """Every vertex pair (a, b) with a < b of one polygon."""
    return itertools.combinations(sorted(poly.vertices.tolist()), 2)


def _polygon_edges(polys: Iterable[Polygon]) -> frozenset[tuple[int, int]]:
    """The edges inside the given polygons, each as (a, b) with a < b."""
    return frozenset(pair for poly in polys for pair in _clique_pairs(poly))


def make_grid_of_cliques(spec: GridSpec) -> TessellatedGraph:
    """Build the toroidal grid of 4q-cliques with its two-tessellation cover.

    Tessellation 0 holds the n*n cell cliques (size 4q, cell (x, y) at
    polygon index x*n + y).  Tessellation 1 holds the 2n*2 link cliques
    (size 2q) joining each cell to its +x and +y neighbours: the link in
    direction +x from cell (x, y) pairs local slots [0, q) with slots
    [2q, 3q) of cell (x+1, y); the link in direction +y pairs [q, 2q) with
    [3q, 4q) of cell (x, y+1).
    """
    n, q = spec.n, spec.q
    cell = spec.cell_size

    cell_polys = []
    link_polys = []
    for x in range(n):
        for y in range(n):
            base = (x * n + y) * cell
            cell_polys.append(Polygon.uniform(range(base, base + cell)))
    for x in range(n):
        for y in range(n):
            right = [spec.vertex_index(x, y, k) for k in range(q)]
            right += [spec.vertex_index(x + 1, y, 2 * q + k) for k in range(q)]
            up = [spec.vertex_index(x, y, q + k) for k in range(q)]
            up += [spec.vertex_index(x, y + 1, 3 * q + k) for k in range(q)]
            link_polys.append(Polygon.uniform(right))
            link_polys.append(Polygon.uniform(up))

    graph = SimpleGraph(spec.num_vertices, _polygon_edges(itertools.chain(cell_polys, link_polys)))
    tessellations = (Tessellation(tuple(cell_polys)), Tessellation(tuple(link_polys)))
    return TessellatedGraph(graph, tessellations)


def expected_grid_edge_count(spec: GridSpec) -> int:
    """Edge count of the grid of cliques: n^2*C(4q,2) cell edges plus
    2n^2*q^2 edges added by the links (each link clique on 2q vertices
    contributes only the q*q cross edges; its two q-halves already lie
    inside cell cliques)."""
    n, q = spec.n, spec.q
    return n * n * math.comb(4 * q, 2) + 2 * n * n * q * q


def validate_cover(tg: TessellatedGraph) -> CoverReport:
    """Check the three cover conditions and report every violation found."""
    g = tg.graph
    bad_polygons = []
    uncovered_vertices = []
    duplicated_vertices = []

    for t_idx, tess in enumerate(tg.tessellations):
        counts = np.zeros(g.num_vertices, dtype=np.int64)
        for p_idx, poly in enumerate(tess.polygons):
            counts[poly.vertices] += 1
            if not all(g.has_edge(a, b) for a, b in _clique_pairs(poly)):
                bad_polygons.append((t_idx, p_idx))
        for v in np.flatnonzero(counts == 0):
            uncovered_vertices.append((t_idx, int(v)))
        for v in np.flatnonzero(counts > 1):
            duplicated_vertices.append((t_idx, int(v)))

    covered_edges = _polygon_edges(poly for tess in tg.tessellations for poly in tess.polygons)
    uncovered_edges = sorted(g.edges - covered_edges)

    return CoverReport(
        clique_ok=not bad_polygons,
        bad_polygons=tuple(bad_polygons),
        partition_ok=not (uncovered_vertices or duplicated_vertices),
        uncovered_vertices=tuple(uncovered_vertices),
        duplicated_vertices=tuple(duplicated_vertices),
        edge_cover_ok=not uncovered_edges,
        uncovered_edges=tuple(uncovered_edges),
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
    adj = g.neighbors()
    if any(len(lst) == 0 for lst in adj):
        raise ValueError("conversion requires minimum degree 1 (no isolated vertices)")

    arcs: list[tuple[int, int]] = []
    arc_index: dict[tuple[int, int], int] = {}
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            arc_index[(u, v)] = len(arcs)
            arcs.append((u, v))

    coin_polys = []
    pos = 0
    for u, nbrs in enumerate(adj):
        coin_polys.append(Polygon.uniform(range(pos, pos + len(nbrs))))
        pos += len(nbrs)

    shift_polys = []
    for u, v in sorted(g.edges):
        shift_polys.append(Polygon.uniform([arc_index[(u, v)], arc_index[(v, u)]]))

    graph = SimpleGraph(len(arcs), _polygon_edges(itertools.chain(coin_polys, shift_polys)))
    tg = TessellatedGraph(graph, (Tessellation(tuple(coin_polys)), Tessellation(tuple(shift_polys))))
    return tg, tuple(arcs)


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
    by_tess: dict[int, list[Polygon]] = {}
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
        if len(set(verts)) != len(verts):
            raise ParseError(line_no, "duplicate vertex within polygon")
        for v in verts:
            if not 0 <= v < g.num_vertices:
                raise ParseError(line_no, f"vertex {v} out of range for {g.num_vertices} vertices")
        by_tess.setdefault(t_idx, []).append(Polygon.uniform(verts))
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
        polys = tuple(by_tess[t_idx])
        covered = sum(p.size for p in polys)
        tessellations.append(Tessellation(polys, covers_all_vertices=covered == g.num_vertices))
    pristine = all(t.covers_all_vertices for t in tessellations)
    return TessellatedGraph(g, tuple(tessellations), pristine=pristine)


def write_cover(tg: TessellatedGraph) -> str:
    """Serialize a uniform-amplitude cover in canonical form.

    Canonical form sorts vertices ascending within each polygon and orders
    polygons by their least vertex; the file format carries no amplitudes,
    so non-uniform covers are rejected.
    """
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
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
