"""Affinity construction, normalization schemes, embeddings, shifts."""

import tracemalloc

import numpy as np
import pytest

from lsikit.graphs import (
    AffinityGraph,
    DirectedWeights,
    KernelSpec,
    bipartite_embed,
    bipartite_normalize,
    degree_matrix,
    diagonal_shift,
    directed_symmetrize,
    directed_weights,
    kernel_affinity,
    normalize_affinity,
)
from lsikit.matrix import SparseMatrix, symmetric_eigen_topk, truncated_svd

from conftest import SYNONYMY, POLYSEMY


# ---------------------------------------------------------------------------
# kernels


def test_gaussian_identical_points_give_unit_affinity():
    pts = np.array([[1.0, 1.0], [2.0, 2.0]])  # two identical columns
    g = kernel_affinity(pts, KernelSpec("gaussian", alpha=0.7))
    assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert g.weights[0, 0] == 1.0


def test_gaussian_unit_distance():
    pts = np.array([[0.0, 1.0], [0.0, 0.0]])
    g = kernel_affinity(pts, KernelSpec("gaussian", alpha=0.5))
    assert g.weights[0, 1] == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_polynomial_degree_one_is_gram_matrix():
    rng = np.random.default_rng(2)
    pts = rng.random((3, 4))
    g = kernel_affinity(pts, KernelSpec("polynomial", c=0.0, d=1))
    np.testing.assert_allclose(g.weights, pts.T @ pts, atol=1e-12)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError, match="alpha"):
        KernelSpec("gaussian", alpha=0.0)
    with pytest.raises(ValueError, match="degree"):
        KernelSpec("polynomial", d=0)
    with pytest.raises(ValueError, match="kind"):
        KernelSpec("rbf")


def test_polynomial_negative_affinity_rejected():
    pts = np.array([[1.0, -1.0]])
    with pytest.raises(ValueError, match="negative"):
        kernel_affinity(pts, KernelSpec("polynomial", c=0.0, d=1))


# ---------------------------------------------------------------------------
# degrees and normalization


def test_degree_identity_weights():
    g = AffinityGraph(np.eye(3), "rassoc")
    np.testing.assert_array_equal(degree_matrix(g), [1.0, 1.0, 1.0])


def test_degree_simple_sum():
    g = AffinityGraph(np.array([[0.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(degree_matrix(g), [2.0, 2.0])


def test_degree_of_bipartite_embedding_row():
    g = bipartite_embed(SparseMatrix.from_dense(POLYSEMY))
    # the 'bank' word vertex is row 3: its degree is its row sum, 6
    assert degree_matrix(g)[3] == 6.0


def test_normalize_rassoc_is_identity_operation():
    rng = np.random.default_rng(3)
    x = rng.random((4, 4))
    w = (x + x.T) / 2
    g = AffinityGraph(w, "rassoc")
    np.testing.assert_array_equal(normalize_affinity(g), w)


def test_normalize_nassoc_two_vertex_graph():
    g = AffinityGraph(np.array([[0.0, 2.0], [2.0, 0.0]]), "nassoc")
    np.testing.assert_allclose(normalize_affinity(g), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_nassoc_spectral_radius_at_most_one():
    rng = np.random.default_rng(4)
    x = rng.random((4, 4))
    w = x + x.T
    g = AffinityGraph(w, "nassoc")
    top = np.linalg.eigvalsh(normalize_affinity(g)).max()  # independent oracle
    assert top <= 1.0 + 1e-10


def test_normalize_ncuts_equals_nassoc():
    rng = np.random.default_rng(5)
    x = rng.random((5, 5))
    w = x + x.T
    a = normalize_affinity(AffinityGraph(w, "nassoc"))
    b = normalize_affinity(AffinityGraph(w, "ncuts"))
    np.testing.assert_array_equal(a, b)


def test_normalize_rcuts_uses_shifted_laplacian():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = normalize_affinity(AffinityGraph(w, "rcuts"))
    np.testing.assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    w2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    out2 = normalize_affinity(AffinityGraph(w2, "rcuts"))
    np.testing.assert_allclose(out2, [[-1.0, 2.0], [2.0, -1.0]], atol=1e-15)


def test_normalize_gwassoc_explicit_weights():
    w = np.array([[0.0, 6.0], [6.0, 0.0]])
    g = AffinityGraph(w, "gwassoc", phi=np.array([4.0, 9.0]))
    np.testing.assert_allclose(normalize_affinity(g), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    with pytest.raises(ValueError, match="phi"):
        AffinityGraph(w, "gwassoc")


def test_normalize_rejects_isolated_vertex_with_list():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    g = AffinityGraph(w, "nassoc")
    with pytest.raises(ValueError, match=r"\[2\]"):
        normalize_affinity(g)


def test_normalization_preserves_zero_pattern():
    rng = np.random.default_rng(6)
    x = rng.random((6, 6))
    w = np.where(x + x.T > 1.0, x + x.T, 0.0)
    w = (w + w.T) / 2
    np.fill_diagonal(w, 1.0)  # keep all degrees positive
    out = normalize_affinity(AffinityGraph(w, "nassoc"))
    np.testing.assert_array_equal(out == 0, w == 0)


# ---------------------------------------------------------------------------
# bipartite embedding and normalization


def test_bipartite_embed_scalar():
    g = bipartite_embed(np.array([[3.0]]))
    np.testing.assert_array_equal(
        np.asarray(g.weights.toarray()), [[0.0, 3.0], [3.0, 0.0]]
    )


def test_bipartite_embed_structure():
    g = bipartite_embed(SparseMatrix.from_dense(SYNONYMY))
    w = g.weights.toarray()
    assert w.shape == (11, 11)
    np.testing.assert_array_equal(w, w.T)
    np.testing.assert_array_equal(w[:6, :6], np.zeros((6, 6)))
    np.testing.assert_array_equal(w[6:, 6:], np.zeros((5, 5)))


def test_bipartite_embed_eigenvalues_pair_with_singular_values():
    abar = bipartite_normalize(SYNONYMY)
    sig = truncated_svd(abar, 5).values
    emb = bipartite_embed(abar).weights.toarray()
    eig = np.sort(np.linalg.eigvalsh(emb))  # independent oracle
    np.testing.assert_allclose(eig[-5:][::-1], sig, atol=1e-8)
    np.testing.assert_allclose(eig[:5], -sig, atol=1e-8)


def test_bipartite_normalize_scalar_and_uniform():
    np.testing.assert_allclose(bipartite_normalize(np.array([[4.0]])), [[1.0]])
    np.testing.assert_allclose(
        bipartite_normalize(np.ones((2, 2))), np.full((2, 2), 0.5), atol=1e-15
    )


def test_bipartite_normalize_top_singular_value_is_one():
    top = np.linalg.svd(bipartite_normalize(SYNONYMY), compute_uv=False)[0]
    assert top == pytest.approx(1.0, abs=1e-8)


def test_bipartite_normalize_rejects_zero_rows_and_columns():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=r"columns \[1\]"):
        bipartite_normalize(a)


def test_embedding_then_normalizing_matches_rectangular_normalization():
    # degree-normalizing the square embedding and normalizing the
    # rectangle directly must produce the same off-diagonal block
    rng = np.random.default_rng(7)
    a = rng.random((5, 4)) + 0.05
    g = bipartite_embed(SparseMatrix.from_dense(a))
    whole = normalize_affinity(g)
    np.testing.assert_allclose(whole[:5, 5:], bipartite_normalize(a), atol=1e-14)


def test_rectangular_and_directed_normalizations_preserve_zero_pattern():
    rng = np.random.default_rng(8)
    a = np.where(rng.random((6, 5)) > 0.5, rng.random((6, 5)), 0.0)
    a[:, a.sum(axis=0) == 0] = 0.3  # keep sums positive
    a[a.sum(axis=1) == 0, :] = 0.3
    np.testing.assert_array_equal(bipartite_normalize(a) == 0, a == 0)
    b = np.where(rng.random((6, 6)) > 0.5, rng.random((6, 6)), 0.0) + 0.01
    np.testing.assert_array_equal(
        directed_symmetrize(b, "nassoc") == 0, (b + b.T) == 0
    )


# ---------------------------------------------------------------------------
# directed graphs


def test_directed_symmetric_input_ratio_scheme():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(directed_symmetrize(b, "rassoc"), 2 * b)


def test_directed_single_edge_ratio_scheme():
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(
        directed_symmetrize(b, "rassoc"), [[0.0, 1.0], [1.0, 0.0]]
    )


def test_directed_degree_weighted_hand_example():
    b = np.array([[0.0, 2.0], [1.0, 0.0]])
    w = directed_weights(b, "nassoc")
    np.testing.assert_array_equal(w.in_degrees, [1.0, 2.0])
    np.testing.assert_array_equal(w.out_degrees, [2.0, 1.0])
    np.testing.assert_allclose(w.combined, [np.sqrt(2.0), np.sqrt(2.0)])
    out = directed_symmetrize(b, "nassoc")
    assert out[0, 1] == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-12)
    np.testing.assert_array_equal(out, out.T)


def test_directed_rejects_zero_degree_vertices():
    b = np.array([[0.0, 1.0], [0.0, 0.0]])  # vertex 0 has no in-edges
    with pytest.raises(ValueError, match="zero in- or out-degree"):
        directed_symmetrize(b, "nassoc")


def test_directed_weights_invariant():
    with pytest.raises(ValueError, match="sqrt"):
        DirectedWeights(np.array([4.0]), np.array([1.0]), np.array([3.0]))


def test_directed_symmetrize_exactly_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(100):
        b = rng.random((6, 6)) * 10 + 0.01
        out = directed_symmetrize(b, "nassoc")
        np.testing.assert_array_equal(out, out.T)  # bitwise


def test_normalize_affinity_exactly_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.random((7, 7)) + 0.01
        out = normalize_affinity(AffinityGraph(x + x.T, "nassoc"))
        np.testing.assert_array_equal(out, out.T)  # bitwise


# ---------------------------------------------------------------------------
# diagonal shift


def test_diagonal_shift_zero_is_identity():
    h = np.array([[1.0, 2.0], [2.0, 1.0]])
    np.testing.assert_array_equal(diagonal_shift(h, 0.0), h)


def test_diagonal_shift_makes_psd():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    shifted = diagonal_shift(h, 1.0)
    vals = np.sort(np.linalg.eigvalsh(shifted))
    np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)


def test_diagonal_shift_by_smallest_eigenvalue():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 6))
    h = x + x.T
    lam_min = np.linalg.eigvalsh(h).min()  # independent oracle
    shifted = diagonal_shift(h, abs(lam_min))
    assert np.linalg.eigvalsh(shifted).min() >= -1e-10
    # eigenvectors unchanged: same leading eigenvector up to sign fix
    a = symmetric_eigen_topk(h, 1).vectors
    b = symmetric_eigen_topk(shifted, 1).vectors
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_affinity_graph_validation():
    with pytest.raises(ValueError, match="square"):
        AffinityGraph(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        AffinityGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        AffinityGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="scheme"):
        AffinityGraph(np.eye(2), "fancy")


def test_sparse_affinity_graph_validation_matches_dense():
    for form in (np.asarray, SparseMatrix.from_dense):
        with pytest.raises(ValueError, match="square"):
            AffinityGraph(form(np.ones((2, 3))))
        with pytest.raises(ValueError, match="nonnegative"):
            AffinityGraph(form(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        with pytest.raises(ValueError, match="phi"):
            AffinityGraph(form(np.eye(2)), "gwassoc", phi=np.ones(3))
        # asymmetry may reach 1e-12 * max(|w|, 1), entries absent on one side included
        assert AffinityGraph(form(np.array([[0.0, 1e3], [1e3 + 1e-10, 0.0]]))).order == 2
        for w in ([[0.0, 1.0], [1.0 + 1e-11, 0.0]], [[0.0, 2e-12], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                AffinityGraph(form(np.array(w)))
        assert AffinityGraph(form(np.zeros((3, 3)))).order == 3


def test_bipartite_embed_of_order_20k_stays_sparse():
    rng = np.random.default_rng(11)
    m, n, nnz = 15_000, 5_000, 40_000
    flat = rng.choice(m * n, nnz, replace=False)
    a = SparseMatrix(m, n, flat // n, flat % n, rng.random(nnz) + 0.1)
    import scipy.sparse  # noqa: F401  (its import is not the embedding's memory)

    tracemalloc.start()
    try:
        g = bipartite_embed(a)
        order = g.order
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order == m + n
    # the dense (M+N)^2 embedding alone would take 3.2 GB
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
