"""Independent reference routes for cross-checking the fast engine.

Everything here is built the slow, obvious way: reflections as dense -I
plus rank-one polygon projectors, the coined walk on the torus as a
flip-flop shift times a Grover coin, the grid of cliques one ``Polygon``
and one edge tuple at a time, and each sampled noise plan as an explicit
perturbed cover of renormalized ``Polygon`` blocks (:func:`apply_plan`),
against which :func:`sqwsim.noise.plan_step` is checked.  The fast routes
must agree with these on small instances; keep the two routes independent.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .evolve import localized_clique_state, uniform_state
from .graph import (
    GridSpec,
    Polygon,
    SimpleGraph,
    Tessellation,
    TessellatedGraph,
    _sorted_distinct,
    make_grid_of_cliques,
)
from .noise import BreakPlan
from .search import partial_cover

#: Refuse to build dense matrices beyond this dimension.
MAX_DENSE_DIM = 4096
_UNITARY_TOL = 1e-10

#: Direction slots of the coined torus walk: 0 -> +x, 1 -> +y, 2 -> -x, 3 -> -y.
_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_FLIP = (2, 3, 0, 1)


@dataclass(frozen=True, eq=False)
class DenseUnitary:
    """A dense matrix checked for unitarity on construction."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError("expected a non-empty square matrix")
        if mat.shape[0] > MAX_DENSE_DIM:
            raise ValueError(f"dense dimension {mat.shape[0]} exceeds {MAX_DENSE_DIM}")
        gram = mat.conj().T @ mat
        dev = float(np.max(np.abs(gram - np.eye(mat.shape[0]))))
        if dev > _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def reference_grid_of_cliques(spec: GridSpec) -> TessellatedGraph:
    """The cover of :func:`sqwsim.graph.make_grid_of_cliques`, built one
    validated ``Polygon`` per clique, in the same order, with the edge set
    enumerated pair by pair from every polygon."""
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

    edges = frozenset(
        pair
        for poly in itertools.chain(cell_polys, link_polys)
        for pair in itertools.combinations(sorted(poly.vertices.tolist()), 2)
    )
    tessellations = (Tessellation(tuple(cell_polys)), Tessellation(tuple(link_polys)))
    return TessellatedGraph(SimpleGraph(spec.num_vertices, edges), tessellations)


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
            new_tess.append(Tessellation(tuple(new_polys)))
            changed_any = True
        else:
            new_tess.append(tess)
    if not changed_any:
        return tg
    return TessellatedGraph(tg.graph, tuple(new_tess))


def polygon_partitions(plan: BreakPlan) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Explicit vertex partition of every broken polygon of a plan, keyed
    (tessellation, polygon): all singletons, or under the one_vs_rest policy
    the lone slot's vertex versus the rest."""
    out: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for t_idx, tb in sorted(plan.polygon_breaks.items()):
        polys = plan.cover.tessellations[t_idx].polygons
        for pos, j in enumerate(tb.broken.tolist()):
            verts = polys[j].vertices.tolist()
            if tb.lone_slot is None or len(verts) == 1:
                out[(t_idx, j)] = tuple((v,) for v in verts)
            else:
                k = int(tb.lone_slot[pos])
                out[(t_idx, j)] = ((verts[k],), tuple(verts[:k] + verts[k + 1:]))
    return out


def apply_plan(tg: TessellatedGraph, plan: BreakPlan) -> TessellatedGraph:
    """Materialize a sampled plan as an explicit perturbed cover."""
    if plan.cover is not tg:
        raise ValueError("plan was sampled from a different cover")
    if plan.is_empty:
        return tg
    if plan.broken_vertex_mask is not None:
        return remove_vertices(tg, plan.broken_vertices)

    parts = polygon_partitions(plan)
    new_tess = list(tg.tessellations)
    for t_idx in sorted(plan.polygon_breaks):
        new_polys: list[Polygon] = []
        for j, poly in enumerate(tg.tessellations[t_idx].polygons):
            part = parts.get((t_idx, j))
            new_polys.extend((poly,) if part is None else break_polygon(poly, part))
        new_tess[t_idx] = Tessellation(tuple(new_polys))
    return TessellatedGraph(tg.graph, tuple(new_tess))


def _dense_reflection(tess: Tessellation, num_vertices: int) -> np.ndarray:
    mat = -np.eye(num_vertices, dtype=np.complex128)
    for poly in tess.polygons:
        verts = poly.vertices
        mat[np.ix_(verts, verts)] += 2.0 * np.outer(poly.amplitudes, np.conj(poly.amplitudes))
    return mat


def dense_step_matrix(tg: TessellatedGraph) -> DenseUnitary:
    """The full step operator as an explicit matrix (product of reflections,
    tessellation 0 applied first)."""
    num = tg.num_vertices
    if num > MAX_DENSE_DIM:
        raise ValueError(f"graph with {num} vertices exceeds dense limit {MAX_DENSE_DIM}")
    mat = np.eye(num, dtype=np.complex128)
    for tess in tg.tessellations:
        mat = _dense_reflection(tess, num) @ mat
    return DenseUnitary(mat)


def shift_matrix(n: int) -> np.ndarray:
    """Flip-flop shift of the coined torus walk: |cell, d> -> |cell + d, -d>."""
    dim = 4 * n * n
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dimension {dim} exceeds dense limit {MAX_DENSE_DIM}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(n):
        for y in range(n):
            for d, (dx, dy) in enumerate(_DIRS):
                src = (x * n + y) * 4 + d
                dst = (((x + dx) % n) * n + ((y + dy) % n)) * 4 + _FLIP[d]
                mat[dst, src] = 1.0
    return mat


def coin_matrix(n: int, marked: tuple[int, int] | None = None) -> np.ndarray:
    """Block-diagonal Grover coin; the marked cell's block (if any) is -I."""
    grover = 0.5 * np.ones((4, 4)) - np.eye(4)
    mat = np.kron(np.eye(n * n), grover).astype(np.complex128)
    if marked is not None:
        x, y = marked
        j = (x % n) * n + (y % n)
        block = slice(4 * j, 4 * j + 4)
        mat[block, block] = -np.eye(4)
    return mat


def fcqw_grid_step(n: int, marked: tuple[int, int] | None = None) -> DenseUnitary:
    """One step of the flip-flop coined walk on the n-by-n torus with a
    Grover coin, optionally with the coin replaced by -I at a marked cell."""
    return DenseUnitary(shift_matrix(n) @ coin_matrix(n, marked))


@dataclass(frozen=True, eq=False)
class CoinedBasisMap:
    """Relabeling between grid-of-cliques vertices and coined (cell, direction) states."""

    to_coined: np.ndarray
    from_coined: np.ndarray


def coined_basis_map(n: int) -> CoinedBasisMap:
    """Identify clique vertex (x, y, k) with coined state (cell (x, y), direction k)."""
    spec = GridSpec(n, 1)
    to_coined = np.empty(spec.num_vertices, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            for k in range(4):
                to_coined[spec.vertex_index(x, y, k)] = (x * n + y) * 4 + k
    from_coined = np.empty_like(to_coined)
    from_coined[to_coined] = np.arange(to_coined.size)
    return CoinedBasisMap(to_coined=to_coined, from_coined=from_coined)


def verify_equivalence(n: int, steps: int, marked: tuple[int, int] | None = None) -> float:
    """Largest deviation between the staggered walk on the grid of cliques
    (q = 1) and the coined torus walk under the basis relabeling.

    Compares the relabeled step operators entrywise, then evolves a
    localized state and the uniform state for ``steps`` steps through both
    routes.  With ``marked`` set, the staggered side drops the marked cell's
    polygon and the coined side uses the -I coin there.
    """
    spec = GridSpec(n, 1)
    tg = make_grid_of_cliques(spec)
    if marked is not None:
        tg = partial_cover(tg, marked)
    u_stag = dense_step_matrix(tg).entries
    u_coin = fcqw_grid_step(n, marked).entries
    bm = coined_basis_map(n)

    relabeled = u_coin[np.ix_(bm.to_coined, bm.to_coined)]
    dev = float(np.max(np.abs(relabeled - u_stag)))

    starts = [
        localized_clique_state(spec, 0, 0).amplitudes,
        uniform_state(spec.num_vertices).amplitudes,
    ]
    for psi in starts:
        psi_s = psi.copy()
        psi_c = np.empty_like(psi_s)
        psi_c[bm.to_coined] = psi_s
        for _ in range(steps):
            psi_s = u_stag @ psi_s
            psi_c = u_coin @ psi_c
            dev = max(dev, float(np.max(np.abs(psi_c[bm.to_coined] - psi_s))))
    return dev
