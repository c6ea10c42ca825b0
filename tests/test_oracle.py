import math

import numpy as np
import pytest

from conftest import random_cover, random_state
from sqwsim.evolve import WalkState, step
from sqwsim.graph import (
    GridSpec,
    Polygon,
    SimpleGraph,
    Tessellation,
    TessellatedGraph,
    make_grid_of_cliques,
    validate_cover,
)
from sqwsim.noise import NoiseSpec, sample_plan
from sqwsim.oracle import (
    MAX_DENSE_DIM,
    DenseUnitary,
    apply_plan,
    coin_matrix,
    coined_basis_map,
    dense_step_matrix,
    fcqw_grid_step,
    reference_grid_of_cliques,
    remove_vertices,
    shift_matrix,
    verify_equivalence,
)
from sqwsim.search import partial_cover


class TestDenseUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            DenseUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="exceeds"):
            DenseUnitary(np.eye(MAX_DENSE_DIM + 1))


class TestReferenceGrid:
    """The array-built grid against the polygon-by-polygon reference."""

    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3)])
    def test_same_cover(self, n, q):
        spec = GridSpec(n, q)
        fast, ref = make_grid_of_cliques(spec), reference_grid_of_cliques(spec)
        assert fast.graph.edges == ref.graph.edges
        assert fast.graph.edge_array.tolist() == [list(pair) for pair in sorted(ref.graph.edges)]
        for got, want in zip(fast.tessellations, ref.tessellations):
            assert got.vertices.tolist() == want.vertices.tolist()
            assert got.starts.tolist() == want.starts.tolist()
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            for a, b in zip(got.polygons, want.polygons, strict=True):
                assert a.vertices.tolist() == b.vertices.tolist()
                assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3)])
    def test_same_validation_reports(self, n, q):
        spec = GridSpec(n, q)
        fast, ref = make_grid_of_cliques(spec), reference_grid_of_cliques(spec)
        assert validate_cover(fast) == validate_cover(ref)
        assert validate_cover(fast).ok
        marked = (n - 1, 1)
        j = marked[0] * n + marked[1]
        cells = ref.tessellations[0].polygons
        ref_cut = TessellatedGraph(
            ref.graph,
            (Tessellation(cells[:j] + cells[j + 1 :]), ref.tessellations[1]),
        )
        report = validate_cover(partial_cover(fast, marked))
        assert report == validate_cover(ref_cut)
        assert len(report.uncovered_vertices) == 4 * q
        assert len(report.uncovered_edges) == math.comb(4 * q, 2) - 4 * math.comb(q, 2)


class TestDenseStepMatrix:
    def test_singleton_tessellations_give_identity(self):
        g = SimpleGraph(3, frozenset())
        singles = Tessellation(tuple(Polygon.uniform([v]) for v in range(3)))
        tg = TessellatedGraph(g, (singles,))
        np.testing.assert_allclose(dense_step_matrix(tg).entries, np.eye(3))

    @pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (2, 2)])
    def test_matches_sparse_engine_on_grids(self, n, q):
        spec = GridSpec(n, q)
        tg = make_grid_of_cliques(spec)
        mat = dense_step_matrix(tg).entries
        rng = np.random.default_rng(41)
        for _ in range(20):
            state = WalkState(random_state(rng, spec.num_vertices))
            np.testing.assert_allclose(
                mat @ state.amplitudes, step(tg, state).amplitudes, atol=1e-12
            )

    def test_matches_sparse_engine_on_random_covers(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            num = int(rng.integers(2, 20))
            tg = random_cover(rng, num, int(rng.integers(1, 4)))
            mat = dense_step_matrix(tg).entries
            state = WalkState(random_state(rng, num))
            np.testing.assert_allclose(mat @ state.amplitudes, step(tg, state).amplitudes, atol=1e-12)

    def test_matches_sparse_engine_on_perturbed_covers(self):
        spec = GridSpec(3, 1)
        tg = make_grid_of_cliques(spec)
        rng = np.random.default_rng(43)
        perturbed = [
            remove_vertices(tg, [0, 7, 20]),
            apply_plan(tg, sample_plan(tg, NoiseSpec(kind="break_polygons", p=0.5), rng)),
            partial_cover(tg, (1, 2)),
        ]
        for cover in perturbed:
            mat = dense_step_matrix(cover).entries
            state = WalkState(random_state(rng, spec.num_vertices))
            np.testing.assert_allclose(mat @ state.amplitudes, step(cover, state).amplitudes, atol=1e-12)

    def test_guard_on_dimension(self):
        g = SimpleGraph(MAX_DENSE_DIM + 4, frozenset())
        tess = Tessellation(tuple(Polygon.uniform([v]) for v in range(MAX_DENSE_DIM + 4)))
        with pytest.raises(ValueError, match="exceeds"):
            dense_step_matrix(TessellatedGraph(g, (tess,)))


class TestCoinedWalkPieces:
    def test_shift_is_an_exact_involution(self):
        s = shift_matrix(4)
        np.testing.assert_array_equal((s @ s).real, np.eye(64))
        # permutation matrix: one unit entry per row and column
        assert np.all(s.real.sum(axis=0) == 1)
        assert np.all(s.real.sum(axis=1) == 1)

    def test_grover_coin_eigenvalues(self):
        c = coin_matrix(2)
        block = c[:4, :4].real
        vals = np.sort(np.linalg.eigvalsh(block))
        np.testing.assert_allclose(vals, [-1, -1, -1, 1], atol=1e-12)

    def test_marked_coin_block_is_minus_identity(self):
        c = coin_matrix(3, marked=(1, 2))
        j = 1 * 3 + 2
        np.testing.assert_allclose(c[4 * j : 4 * j + 4, 4 * j : 4 * j + 4], -np.eye(4))

    def test_step_is_unitary(self):
        fcqw_grid_step(5)
        fcqw_grid_step(5, marked=(0, 0))

    def test_basis_map_is_a_bijection(self):
        bm = coined_basis_map(3)
        assert sorted(bm.to_coined.tolist()) == list(range(36))
        np.testing.assert_array_equal(bm.from_coined[bm.to_coined], np.arange(36))


class TestVerifyEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unmarked(self, n):
        assert verify_equivalence(n, 8) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_marked(self, n):
        assert verify_equivalence(n, 8, marked=(0, 0)) < 1e-12

    def test_marked_cell_choice_does_not_matter(self):
        assert verify_equivalence(3, 5, marked=(2, 1)) < 1e-12
