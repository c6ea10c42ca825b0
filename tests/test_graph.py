import itertools
import math
import re

import numpy as np
import pytest

from conftest import random_cover
from sqwsim.graph import (
    CoverReport,
    GridSpec,
    ParseError,
    Polygon,
    SimpleGraph,
    Tessellation,
    TessellatedGraph,
    coined_to_staggered,
    make_grid_of_cliques,
    read_cover,
    read_graph,
    validate_cover,
    write_cover,
    write_graph,
)

# Rows of (vertices, starts, amplitudes, message) that the tessellation
# arrays are refused for; the rows with starts [0, len(vertices)] hold one
# polygon, and ``Polygon`` and ``Tessellation(...)`` refuse them with the
# same message.
ARRAY_CHECKS = [
    ([0, 1], [0, 2], [1.0, 1.0], "norm"),
    ([0, 1], [0, 2], [np.nan, 1.0], "norm"),
    ([0, 1, 2], [0, 1, 3], [1.0, 0.6, 0.0], "norm"),
    ([0, -1], [0, 2], [0.6, 0.8], "negative"),
    ([0, 0], [0, 2], [0.6, 0.8], "duplicate"),
    ([0, 1, 1], [0, 2, 3], [0.6, 0.8, 1.0], "overlap"),
    ([0, 1], [0, 0, 2], [0.6, 0.8], "at least one vertex"),
    ([0, 1], [0, 1], [0.6, 0.8], "starts"),
    ([0, 1], [1, 2], [0.6, 0.8], "starts"),
    ([0, 1], [0, 2], [1.0], "parallel"),
    ([], [0, 0], [], "at least one vertex"),
    # |a|^2 of 1e-170 underflows to 0.0, and of 1e-155 to a subnormal
    # whose renormalizing factor 2 / |a|^2 overflows
    ([0, 1], [0, 2], [1.0, 0.0], "polygon entry at vertex 1 has zero amplitude"),
    ([0, 1], [0, 2], [1.0, 1e-170], "polygon entry at vertex 1 has zero amplitude"),
    ([0, 1], [0, 2], [1.0, 1e-155j], "polygon entry at vertex 1 has zero amplitude"),
    ([0.5, 1.5], [0, 2], [0.6, 0.8], "vertex indices must be integers, got 0.5"),
    ([0, 1e20], [0, 2], [0.6, 0.8], "vertex indices must be integers"),
    ([0, np.nan], [0, 2], [0.6, 0.8], "vertex indices must be integers"),
    ([0, 1], [0, 1.5, 2], [1.0, 1.0], "polygon starts must be integers"),
]
ONE_POLYGON_CHECKS = [(v, a, m) for v, s, a, m in ARRAY_CHECKS if s == [0, len(v)]]


def expected_grid_edge_count(spec: GridSpec) -> int:
    """Edge count of the grid of cliques: n^2*C(4q,2) cell edges plus
    2n^2*q^2 edges added by the links (each link clique on 2q vertices
    contributes only the q*q cross edges; its two q-halves already lie
    inside cell cliques)."""
    n, q = spec.n, spec.q
    return n * n * math.comb(4 * q, 2) + 2 * n * n * q * q


def random_graph(rng: np.random.Generator) -> SimpleGraph:
    """A path on 3..8 vertices plus random chords, so no vertex is isolated."""
    n = int(rng.integers(3, 9))
    edges = {(u, u + 1) for u in range(n - 1)}
    for _ in range(n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return SimpleGraph(n, frozenset(edges))


class TestPolygon:
    def test_uniform_amplitudes(self):
        poly = Polygon.uniform([0, 1, 2, 3])
        assert np.allclose(poly.amplitudes, 0.5)
        assert poly.size == 4

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polygon(np.array([0, 0]), np.array([1.0, 0.0]))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            Polygon(np.array([0, 1]), np.array([1.0, 1.0]))

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="norm"):
            Polygon(np.array([0, 1]), np.array([np.nan, 1.0]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Polygon(np.array([0, 1]), np.array([1.0]))

    def test_arrays_read_only(self):
        poly = Polygon.uniform([0, 1])
        with pytest.raises(ValueError):
            poly.vertices[0] = 5

    @pytest.mark.parametrize("verts,amps,message", ONE_POLYGON_CHECKS)
    def test_checks_match_tessellation(self, verts, amps, message):
        with pytest.raises(ValueError, match=message):
            Polygon(np.array(verts), np.array(amps))


class TestTessellation:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Tessellation((Polygon.uniform([0, 1]), Polygon.uniform([1, 2])))

    def test_covered_vertices(self):
        tess = Tessellation((Polygon.uniform([2, 0]), Polygon.uniform([1])))
        assert sorted(tess.vertices.tolist()) == [0, 1, 2]

    def test_arrays_follow_polygon_order(self):
        polys = (Polygon.uniform([2, 0]), Polygon(np.array([1, 4, 3]), np.array([0.6, 0.48, 0.64j])))
        tess = Tessellation(polys)
        assert tess.vertices.tolist() == [2, 0, 1, 4, 3]
        assert tess.starts.tolist() == [0, 2, 5]
        assert tess.sizes.tolist() == [2, 3]
        assert tess.num_polygons == 2
        assert tess.polygons is tess.polygons
        assert all(a is b for a, b in zip(tess.polygons, polys))

    def test_from_arrays_builds_polygons_on_read(self):
        tess = Tessellation.from_arrays(
            np.array([5, 1, 2, 0]), np.array([0, 1, 4]), np.array([1.0, 0.6, 0.48, 0.64j])
        )
        polys = tess.polygons
        assert [p.vertices.tolist() for p in polys] == [[5], [1, 2, 0]]
        assert polys[1].amplitudes.tolist() == [0.6, 0.48, 0.64j]
        assert tess.polygons is polys
        with pytest.raises(ValueError):
            polys[1].vertices[0] = 7
        with pytest.raises(ValueError):
            tess.amplitudes[0] = 0.0

    def test_empty(self):
        for tess in (Tessellation(()), Tessellation.from_arrays([], [0], [])):
            assert tess.num_polygons == 0
            assert tess.polygons == ()
            assert tess.vertices.dtype == np.int64

    @pytest.mark.parametrize("verts,starts,amps,message", ARRAY_CHECKS)
    def test_from_arrays_checks(self, verts, starts, amps, message):
        with pytest.raises(ValueError, match=message):
            Tessellation.from_arrays(np.array(verts), np.array(starts), np.array(amps))

    @pytest.mark.parametrize("verts,amps,message", ONE_POLYGON_CHECKS)
    def test_constructor_checks_its_polygons(self, verts, amps, message):
        # an unchecked polygon, so the refusal is the tessellation's own
        with pytest.raises(ValueError, match=message):
            Tessellation((Polygon._unchecked(np.array(verts), np.array(amps)),))


class TestPolygonEntries:
    def test_smallest_entry_accepted(self):
        # the least |a|^2 accepted is the least normal float64
        tiny = math.sqrt(np.finfo(np.float64).tiny)
        Polygon(np.array([0, 1]), np.array([math.sqrt(1.0 - tiny * tiny), tiny]))

    @pytest.mark.parametrize(
        "amps,message",
        [
            ([np.nan, 0.0], "polygon amplitudes have squared norm nan, expected 1"),
            ([2.0, 0.0], "polygon amplitudes have squared norm 4.0, expected 1"),
            ([1.0, 1.0], "polygon amplitudes have squared norm 2.0, expected 1"),
        ],
    )
    def test_norm_messages_come_first(self, amps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Polygon(np.array([0, 1]), np.array(amps))

    def test_integral_float_vertices_accepted(self):
        for built in (
            Polygon(np.array([0.0, 2.0]), np.array([0.6, 0.8])),
            Tessellation.from_arrays(np.array([0.0, 2.0]), np.array([0.0, 2.0]), np.array([0.6, 0.8])),
        ):
            assert built.vertices.tolist() == [0, 2] and built.vertices.dtype == np.int64

    def test_uniform_refuses_bad_vertex_lists(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Polygon.uniform([])
        with pytest.raises(ValueError, match="vertex indices must be integers"):
            Polygon.uniform([0, 0.5])

    @pytest.mark.parametrize("verts", [np.array([[0, 1]]), np.array(0)])
    def test_vertices_not_1d_refused(self, verts):
        with pytest.raises(ValueError, match="parallel 1-d"):
            Polygon(verts, np.full(verts.shape, 1.0 / math.sqrt(verts.size)))


class TestSimpleGraph:
    def test_non_integer_endpoints_refused(self):
        with pytest.raises(ValueError, match="edge endpoints must be integers, got 0.7"):
            SimpleGraph(4, [(0.7, 2)])
        with pytest.raises(ValueError, match="edge endpoints must be integers, got 2.5"):
            SimpleGraph(4, np.array([[0.0, 1.0], [1.0, 2.5]]))

    def test_integral_float_endpoints_accepted(self):
        assert SimpleGraph(4, [(3.0, 2)]).edge_array.tolist() == [[2, 3]]
        assert SimpleGraph(4, np.array([[0.0, 1.0]])).edge_array.dtype == np.int64

    def test_normalizes_edges(self):
        g = SimpleGraph(3, frozenset({(2, 0), (0, 1)}))
        assert (0, 2) in g.edges and (0, 1) in g.edges
        assert g.has_edge(2, 0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimpleGraph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SimpleGraph(2, frozenset({(0, 5)}))

    def test_array_input_is_normalized_and_sorted(self):
        g = SimpleGraph(5, np.array([[3, 1], [0, 2], [1, 3], [4, 0]]))
        assert g.edge_array.tolist() == [[0, 2], [0, 4], [1, 3]]
        assert g.edges == frozenset({(0, 2), (0, 4), (1, 3)})
        assert g.num_edges == 3
        assert g.has_edge(3, 1) and g.has_edge(4, 0)
        assert not g.has_edge(0, 1) and not g.has_edge(0, 9) and not g.has_edge(-1, 0)
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 1

    def test_array_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            SimpleGraph(2, np.array([[0, 1], [1, 1]]))

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 1), (2, 2 ** 40)])
    def test_array_rejects_out_of_range(self, pair):
        with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\) out of range"):
            SimpleGraph(3, np.array([[0, 1], pair]))

    def test_array_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            SimpleGraph(3, np.array([[0, 1, 2]]))

    def test_edge_keys_fit_in_int64_up_to_the_vertex_bound(self):
        n = 3_037_000_499  # the largest n with n * n - 1 < 2**63
        g = SimpleGraph(n, [(n - 1, n - 2)])
        assert g.edge_array.tolist() == [[n - 2, n - 1]]
        assert g.has_edge(n - 2, n - 1) and not g.has_edge(n - 3, n - 1)
        with pytest.raises(ValueError, match=rf"num_vertices must be in \[0, {n}\], got {n + 1}"):
            SimpleGraph(n + 1, [(n - 1, n)])

    def test_no_edges(self):
        for g in (SimpleGraph(0), SimpleGraph(3, frozenset()), SimpleGraph(3, np.empty((0, 2), int))):
            assert g.edges == frozenset()
            assert g.edge_array.shape == (0, 2)


class TestGridSpec:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            GridSpec(4, 0)

    def test_vertex_index_wraps(self):
        spec = GridSpec(3, 2)
        assert spec.vertex_index(3, 0, 0) == spec.vertex_index(0, 0, 0)
        assert spec.vertex_index(1, 2, 5) == (1 * 3 + 2) * 8 + 5

    def test_vertex_index_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            GridSpec(3, 1).vertex_index(0, 0, 4)


class TestGridOfCliques:
    def test_smallest_grid_counts(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        assert tg.num_vertices == 16
        assert len(tg.tessellations[0].polygons) == 4
        assert len(tg.tessellations[1].polygons) == 8
        assert all(p.size == 4 for p in tg.tessellations[0].polygons)
        assert all(p.size == 2 for p in tg.tessellations[1].polygons)

    def test_cell_amplitudes(self):
        tg = make_grid_of_cliques(GridSpec(2, 2))
        cell = tg.tessellations[0].polygons[0]
        assert np.allclose(cell.amplitudes, 1.0 / (2.0 * math.sqrt(2)))
        link = tg.tessellations[1].polygons[0]
        assert np.allclose(link.amplitudes, 1.0 / math.sqrt(4))

    @pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (2, 2), (3, 3)])
    def test_edge_count(self, n, q):
        # cells give n^2 * C(4q, 2) edges; each of the 2n^2 links adds only
        # its q*q cross edges, the in-cell halves being already present
        tg = make_grid_of_cliques(GridSpec(n, q))
        assert tg.graph.num_edges == expected_grid_edge_count(GridSpec(n, q))

    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2)])
    def test_valid_cover(self, n, q):
        report = validate_cover(make_grid_of_cliques(GridSpec(n, q)))
        assert report.ok
        assert report.tessellation_count == 2

    def test_each_vertex_in_one_cell_and_one_link(self):
        spec = GridSpec(3, 2)
        tg = make_grid_of_cliques(spec)
        for tess in tg.tessellations:
            counts = np.zeros(spec.num_vertices, dtype=int)
            for poly in tess.polygons:
                counts[poly.vertices] += 1
            assert np.all(counts == 1)

    def test_link_structure(self):
        # the +x link of cell (x, y) pairs slots [0, q) with slots [2q, 3q)
        # of cell (x+1, y); the +y link pairs [q, 2q) with [3q, 4q) above
        spec = GridSpec(3, 2)
        tg = make_grid_of_cliques(spec)
        q = spec.q
        for x in range(3):
            for y in range(3):
                right = tg.tessellations[1].polygons[2 * (x * 3 + y)]
                expect = {spec.vertex_index(x, y, k) for k in range(q)}
                expect |= {spec.vertex_index(x + 1, y, 2 * q + k) for k in range(q)}
                assert set(right.vertices.tolist()) == expect
                up = tg.tessellations[1].polygons[2 * (x * 3 + y) + 1]
                expect = {spec.vertex_index(x, y, q + k) for k in range(q)}
                expect |= {spec.vertex_index(x, y + 1, 3 * q + k) for k in range(q)}
                assert set(up.vertices.tolist()) == expect


class TestValidateCover:
    def test_missing_polygon_reported(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        reduced = Tessellation(tg.tessellations[0].polygons[1:])
        broken = TessellatedGraph(tg.graph, (reduced, tg.tessellations[1]))
        report = validate_cover(broken)
        assert not report.ok
        assert not report.partition_ok
        assert {(0, v) for v in range(4)} == set(report.uncovered_vertices)
        assert not report.edge_cover_ok
        assert len(report.uncovered_edges) == 6

    def test_non_clique_polygon_reported(self):
        tg = make_grid_of_cliques(GridSpec(2, 1))
        links = list(tg.tessellations[1].polygons)
        # swap one vertex between two links: partitions stay intact but the
        # rebuilt pairs are no longer edges of the graph
        a = links[0].vertices.tolist()
        b = links[1].vertices.tolist()
        links[0] = Polygon.uniform([a[0], b[1]])
        links[1] = Polygon.uniform([b[0], a[1]])
        tampered = TessellatedGraph(tg.graph, (tg.tessellations[0], Tessellation(tuple(links))))
        report = validate_cover(tampered)
        assert report.partition_ok
        assert not report.clique_ok
        assert set(report.bad_polygons) == {(1, 0), (1, 1)}

    def test_duplicated_vertex_reported(self):
        g = SimpleGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        tess = Tessellation((Polygon.uniform([0, 1]),))
        extra = Tessellation((Polygon.uniform([0, 1, 2]),))
        report = validate_cover(TessellatedGraph(g, (tess, extra)))
        assert (0, 2) in report.uncovered_vertices


def _pairwise_report(tg: TessellatedGraph) -> CoverReport:
    """validate_cover written as a loop over polygons and their vertex pairs."""
    edges = tg.graph.edges
    bad, uncovered, covered = [], [], set()
    for t_idx, tess in enumerate(tg.tessellations):
        counts = [0] * tg.num_vertices
        for p_idx, poly in enumerate(tess.polygons):
            pairs = set(itertools.combinations(sorted(poly.vertices.tolist()), 2))
            for v in poly.vertices.tolist():
                counts[v] += 1
            if not pairs <= edges:
                bad.append((t_idx, p_idx))
            covered |= pairs
        uncovered += [(t_idx, v) for v, c in enumerate(counts) if c == 0]
    missed = tuple(sorted(edges - covered))
    return CoverReport(
        clique_ok=not bad,
        bad_polygons=tuple(bad),
        partition_ok=not uncovered,
        uncovered_vertices=tuple(uncovered),
        edge_cover_ok=not missed,
        uncovered_edges=missed,
        tessellation_count=tg.num_tessellations,
    )


@pytest.mark.parametrize("seed", range(8))
def test_validate_cover_matches_pairwise_loop(seed):
    # random ragged covers whose graph misses some polygon edges, holds
    # edges no polygon covers, and whose last tessellation lost a polygon
    rng = np.random.default_rng(seed)
    num = int(rng.integers(2, 16))
    cover = random_cover(rng, num, int(rng.integers(1, 4)), max_polygon=5)
    pairs = sorted(cover.graph.edges)
    kept = [pair for pair in pairs if rng.random() < 0.8]
    extra = [(int(a), int(b)) for a, b in rng.integers(0, num, (4, 2)) if a != b]
    tess = list(cover.tessellations)
    polys = tess[-1].polygons
    drop = int(rng.integers(0, len(polys)))
    tess[-1] = Tessellation(polys[:drop] + polys[drop + 1 :])
    tg = TessellatedGraph(SimpleGraph(num, kept + extra), tuple(tess))
    assert validate_cover(tg) == _pairwise_report(tg)


class TestNoPolygonObjectsOnTheWalkPath:
    """The grid, the partial cover, reading a cover file, plan sampling and
    the walk step run on flat arrays alone; ``Polygon`` objects are made
    only when read."""

    @pytest.fixture
    def refuse_polygons(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Polygon was constructed")

        # Polygon.__init__ and Polygon._unchecked are the only ways the package makes one.
        monkeypatch.setattr(Polygon, "__init__", refuse)
        monkeypatch.setattr(Polygon, "_unchecked", refuse)

    @pytest.mark.parametrize("kind", ["break_vertices", "break_polygons"])
    def test_build_cut_sample_and_step(self, refuse_polygons, kind):
        from sqwsim.evolve import step, uniform_state
        from sqwsim.noise import NoiseSpec, plan_step, sample_plan
        from sqwsim.search import partial_cover

        spec = GridSpec(4, 2)
        tg = make_grid_of_cliques(spec)
        state = uniform_state(spec.num_vertices)
        noise = NoiseSpec(kind=kind, p=0.3, split_policy="one_vs_rest")
        for cover in (tg, partial_cover(tg, (1, 2))):
            state = step(cover, state)
            state = plan_step(sample_plan(cover, noise, np.random.default_rng(0)), state)
        assert validate_cover(tg).ok

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_grid_of_cliques(GridSpec(3, 2)),
            # coin polygons of sizes 1, 2 and 4
            lambda: coined_to_staggered(SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (1, 2)]))[0],
        ],
        ids=["grid", "coined"],
    )
    def test_read_cover(self, refuse_polygons, build):
        tg = build()
        text = "".join(
            f"{t_idx} " + " ".join(map(str, tess.vertices[a:b].tolist())) + "\n"
            for t_idx, tess in enumerate(tg.tessellations)
            for a, b in zip(tess.starts[:-1].tolist(), tess.starts[1:].tolist())
        )
        read = read_cover(text, tg.graph)
        for got, want in zip(read.tessellations, tg.tessellations, strict=True):
            assert got.vertices.tolist() == want.vertices.tolist()
            assert got.starts.tolist() == want.starts.tolist()
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert validate_cover(read).ok

    def test_refusal_fires(self, refuse_polygons):
        with pytest.raises(AssertionError):
            Polygon.uniform([0])
        with pytest.raises(AssertionError):
            make_grid_of_cliques(GridSpec(2, 1)).tessellations[0].polygons


class TestCoinedConversion:
    def test_single_edge(self):
        g = SimpleGraph(2, frozenset({(0, 1)}))
        tg, arcs = coined_to_staggered(g)
        assert tg.num_vertices == 2
        assert arcs == ((0, 1), (1, 0))
        coin = tg.tessellations[0]
        assert [p.vertices.tolist() for p in coin.polygons] == [[0], [1]]
        shift = tg.tessellations[1]
        assert [sorted(p.vertices.tolist()) for p in shift.polygons] == [[0, 1]]

    def test_triangle_becomes_hexagon(self):
        g = SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        tg, arcs = coined_to_staggered(g)
        assert tg.num_vertices == 6
        assert arcs == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
        coin = [sorted(p.vertices.tolist()) for p in tg.tessellations[0].polygons]
        assert coin == [[0, 1], [2, 3], [4, 5]]
        shift = [sorted(p.vertices.tolist()) for p in tg.tessellations[1].polygons]
        assert shift == [[0, 2], [1, 4], [3, 5]]
        assert validate_cover(tg).ok

    def test_arc_count_is_twice_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng)
            tg, arcs = coined_to_staggered(g)
            assert tg.num_vertices == 2 * g.num_edges
            assert len(arcs) == 2 * g.num_edges
            assert validate_cover(tg).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_follow_from_arc_table(self, seed):
        # two arcs are adjacent when they leave one vertex (coin) or are
        # each other's reverse (shift)
        tg, arcs = coined_to_staggered(random_graph(np.random.default_rng(seed)))
        index = {arc: i for i, arc in enumerate(arcs)}
        expected = {
            (i, j) for i, j in itertools.combinations(range(len(arcs)), 2) if arcs[i][0] == arcs[j][0]
        }
        expected |= {tuple(sorted((i, index[(head, tail)]))) for i, (tail, head) in enumerate(arcs)}
        assert tg.graph.edges == expected

    def test_torus_conversion_matches_grid_graph(self):
        networkx = pytest.importorskip("networkx")
        n = 4
        edges = set()
        for x in range(n):
            for y in range(n):
                edges.add(tuple(sorted((x * n + y, ((x + 1) % n) * n + y))))
                edges.add(tuple(sorted((x * n + y, x * n + (y + 1) % n))))
        g = SimpleGraph(n * n, frozenset(edges))
        converted, _ = coined_to_staggered(g)
        grid = make_grid_of_cliques(GridSpec(n, 1))

        def to_nx(sg):
            out = networkx.Graph()
            out.add_nodes_from(range(sg.num_vertices))
            out.add_edges_from(sg.edges)
            return out

        assert networkx.is_isomorphic(to_nx(converted.graph), to_nx(grid.graph))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="isolated"):
            coined_to_staggered(SimpleGraph(3, frozenset({(0, 1)})))


class TestGraphIO:
    def test_read_graph_basic(self):
        g = read_graph("# a comment\n3 2\n0 1\n\n1 2\n")
        assert g.num_vertices == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_read_graph_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            read_graph("3 2\n0 1\n1 9\n")
        assert err.value.line_no == 3
        with pytest.raises(ParseError):
            read_graph("3 1\n0 0\n")
        with pytest.raises(ParseError):
            read_graph("3 2\n0 1\n0 1\n")
        with pytest.raises(ParseError):
            read_graph("3 2\n0 1\n")
        with pytest.raises(ParseError):
            read_graph("nope\n")

    def test_read_graph_rejects_vertex_counts_beyond_int64_keys(self):
        with pytest.raises(ParseError, match="at most 3037000499 vertices are supported, got 5000000000") as err:
            read_graph("# header next\n5000000000 1\n4000000000 4000000001\n")
        assert err.value.line_no == 2

    def test_read_cover_basic(self):
        g = SimpleGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
        tg = read_cover("0 0 1 2 3\n", g)
        assert tg.num_tessellations == 1
        poly = tg.tessellations[0].polygons[0]
        assert np.allclose(poly.amplitudes, 0.5)

    def test_read_cover_rejects_gap_in_indices(self):
        g = SimpleGraph(2, frozenset({(0, 1)}))
        with pytest.raises(ParseError, match="contiguous"):
            read_cover("0 0 1\n2 0 1\n", g)

    def test_read_cover_rejects_bad_vertex(self):
        g = SimpleGraph(2, frozenset({(0, 1)}))
        with pytest.raises(ParseError) as err:
            read_cover("0 0 5\n", g)
        assert err.value.line_no == 1

    def test_read_cover_rejects_overlap(self):
        g = SimpleGraph(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ParseError, match="vertex 1 already covered in tessellation 0") as err:
            read_cover("0 0 1\n0 1 2\n", g)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "text,line_no,tess",
        [
            # another tessellation's lines come in between
            ("0 0 1\n1 1 2\n1 0\n0 3\n0 2 1\n", 5, 0),
            ("1 0 1\n0 2 3\n1 2\n0 0 1\n1 3 2\n", 5, 1),
            # both overlap: the first line in the file is named, not the lowest tessellation
            ("0 0 1\n1 0 1\n1 1 2\n0 2 3\n0 3\n", 3, 1),
        ],
    )
    def test_read_cover_names_the_first_overlapping_line(self, text, line_no, tess):
        g = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        with pytest.raises(ParseError, match=f"already covered in tessellation {tess}") as err:
            read_cover(text, g)
        assert err.value.line_no == line_no

    def test_roundtrip_is_canonical_fixed_point(self):
        tg = make_grid_of_cliques(GridSpec(3, 2))
        text = write_cover(tg)
        again = write_cover(read_cover(text, tg.graph))
        assert text == again
        gtext = write_graph(tg.graph)
        assert gtext == write_graph(read_graph(gtext))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_uniform_covers_round_trip(self, seed):
        # random covers hold one-vertex polygons and list polygons in any order
        rng = np.random.default_rng(seed)
        tg = random_cover(rng, int(rng.integers(1, 12)), int(rng.integers(1, 4)), uniform=True)
        text = write_cover(tg)
        assert write_cover(read_cover(text, tg.graph)) == text

    @pytest.mark.parametrize(
        "tessellations",
        [(), (Tessellation(()), Tessellation((Polygon.uniform([0, 1]),)))],
        ids=["none", "empty"],
    )
    def test_write_cover_rejects_what_read_cover_refuses(self, tessellations):
        # written, these read back as "empty cover file" and as "tessellation
        # indices not contiguous: 0 missing"
        g = SimpleGraph(2, frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="at least one tessellation, and no empty one"):
            write_cover(TessellatedGraph(g, tessellations))

    def test_write_cover_rejects_non_uniform(self):
        g = SimpleGraph(2, frozenset({(0, 1)}))
        poly = Polygon(np.array([0, 1]), np.array([0.8, 0.6]))
        tg = TessellatedGraph(g, (Tessellation((poly,)),))
        with pytest.raises(ValueError, match="uniform"):
            write_cover(tg)

    def test_comments_and_blanks_ignored(self):
        g = SimpleGraph(4, frozenset({(0, 1), (2, 3)}))
        tg = read_cover("# cover\n\n0 0 1\n0 2 3\n", g)
        assert len(tg.tessellations[0].polygons) == 2
