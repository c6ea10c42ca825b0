import math

import numpy as np
import pytest

from sqwsim.graph import (
    GridSpec,
    ParseError,
    Polygon,
    SimpleGraph,
    Tessellation,
    TessellatedGraph,
    coined_to_staggered,
    expected_grid_edge_count,
    make_grid_of_cliques,
    read_cover,
    read_graph,
    validate_cover,
    write_cover,
    write_graph,
)


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


class TestTessellation:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Tessellation((Polygon.uniform([0, 1]), Polygon.uniform([1, 2])))

    def test_covered_vertices(self):
        tess = Tessellation((Polygon.uniform([2, 0]), Polygon.uniform([1])))
        assert sorted(tess.covered_vertices().tolist()) == [0, 1, 2]


class TestSimpleGraph:
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

    def test_degree_sequence(self):
        g = SimpleGraph(3, frozenset({(0, 1), (1, 2)}))
        assert g.degree_sequence().tolist() == [1, 2, 1]


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
        assert tg.graph.num_edges == n * n * math.comb(4 * q, 2) + 2 * n * n * q * q

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
        reduced = Tessellation(tg.tessellations[0].polygons[1:], covers_all_vertices=False)
        broken = TessellatedGraph(tg.graph, (reduced, tg.tessellations[1]), pristine=False)
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
        tess = Tessellation((Polygon.uniform([0, 1]),), covers_all_vertices=False)
        extra = Tessellation((Polygon.uniform([0, 1, 2]),))
        report = validate_cover(TessellatedGraph(g, (tess, extra)))
        assert (0, 2) in report.uncovered_vertices


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
            n = int(rng.integers(3, 9))
            edges = set()
            for u in range(n - 1):
                edges.add((u, u + 1))
            for _ in range(n):
                u, v = rng.integers(0, n, 2)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = SimpleGraph(n, frozenset((int(a), int(b)) for a, b in edges))
            tg, arcs = coined_to_staggered(g)
            assert tg.num_vertices == 2 * g.num_edges
            assert len(arcs) == 2 * g.num_edges
            assert validate_cover(tg).ok

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

    def test_read_cover_basic(self):
        g = SimpleGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
        tg = read_cover("0 0 1 2 3\n", g)
        assert tg.num_tessellations == 1
        poly = tg.tessellations[0].polygons[0]
        assert np.allclose(poly.amplitudes, 0.5)
        assert tg.pristine

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
        with pytest.raises(ValueError):
            read_cover("0 0 1\n0 1 2\n", g)

    def test_roundtrip_is_canonical_fixed_point(self):
        tg = make_grid_of_cliques(GridSpec(3, 2))
        text = write_cover(tg)
        again = write_cover(read_cover(text, tg.graph))
        assert text == again
        gtext = write_graph(tg.graph)
        assert gtext == write_graph(read_graph(gtext))

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
