"""Unit tests for the matrix kernels: norms, eigen, SVD, NMF, k-means."""

import itertools
import tracemalloc

import numpy as np
import pytest

from lsikit.matrix import (
    EigenPairs,
    SparseMatrix,
    SvdFactors,
    column_normalize,
    frobenius_norm,
    kmeans,
    nmf_factorize,
    rank_k_reconstruct,
    require_symmetric,
    symmetric_eigen_topk,
    truncated_svd,
)
from lsikit.matrix import _sign_fix

from conftest import SYNONYMY, POLYSEMY, SYNONYMY_RANK2, POLYSEMY_RANK2
from oracle_utils import nmf_dense_oracle, nmf_error_trace, sign_fix_oracle


# ---------------------------------------------------------------------------
# SparseMatrix


def test_sparse_from_dense_roundtrip():
    a = np.array([[0.0, 2.5], [1.0, 0.0], [0.0, -3.0]])
    s = SparseMatrix.from_dense(a)
    assert s.nnz == 3
    np.testing.assert_array_equal(s.toarray(), a)


def test_sparse_rejects_duplicates_and_zeros():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero"):
        SparseMatrix(2, 2, [0], [1], [0.0])
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix(2, 2, [0], [1], [np.inf])
    with pytest.raises(ValueError, match="row index out of range"):
        SparseMatrix(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix(2, 2, [0], [2], [1.0])
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        SparseMatrix(-1, 2, [], [], [])
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        SparseMatrix(2, 2, [0, 1], [1], [1.0])
    with pytest.raises(ValueError, match="expected a 2-D array"):
        SparseMatrix.from_dense(np.ones(3))


def test_sparse_rejects_a_duplicate_of_an_unsorted_input():
    # (1, 0) twice, apart: only a sort brings the pair together
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(2, 2, [1, 0, 1], [0, 1, 0], [1.0, 2.0, 3.0])


def test_sparse_rejects_adjacent_duplicates_of_a_sorted_input():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])


def test_sparse_is_immutable():
    s = SparseMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError):
        s.data[0] = 5.0


# ---------------------------------------------------------------------------
# frobenius_norm


def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((3, 4))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_frobenius_synonymy_matrix_hand_summation():
    # oracle: explicit sum over the ten nonzero entries
    entries = [15, 15, 20, 10, 5, 20, 10, 20, 10, 15]
    expected = np.sqrt(sum(e * e for e in entries))
    assert frobenius_norm(SYNONYMY) == pytest.approx(expected, rel=1e-14)
    assert frobenius_norm(SparseMatrix.from_dense(SYNONYMY)) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# symmetric_eigen_topk


def test_eigen_diagonal_matrix():
    pairs = symmetric_eigen_topk(np.diag([3.0, 1.0, 2.0]), 2)
    np.testing.assert_allclose(pairs.values, [3.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(pairs.vectors[:, 0], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pairs.vectors[:, 1], [0, 0, 1], atol=1e-12)


def test_eigen_two_by_two_exchange():
    pairs = symmetric_eigen_topk(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    np.testing.assert_allclose(pairs.values, [1.0, -1.0], atol=1e-12)


def test_eigen_trace_invariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 5))
    h = (x + x.T) / 2
    pairs = symmetric_eigen_topk(h, 5)
    assert np.trace(h) == pytest.approx(pairs.values.sum(), abs=1e-8)


def test_eigen_residual_and_orthonormality():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((9, 9))
    h = x + x.T
    pairs = symmetric_eigen_topk(h, 4)
    resid = np.abs(h @ pairs.vectors - pairs.vectors * pairs.values).max()
    assert resid <= 1e-6 * frobenius_norm(h)
    dev = np.abs(pairs.vectors.T @ pairs.vectors - np.eye(4)).max()
    assert dev < 1e-8


def test_eigen_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6))
    h = x + x.T
    a = symmetric_eigen_topk(h, 3)
    b = symmetric_eigen_topk(h.copy(), 3)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    for j in range(3):
        col = a.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def _sign_cases():
    rng = np.random.default_rng(7)
    for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (5, 1), (1, 5)]:
        yield rng.standard_normal(shape)
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        yield rng.standard_normal((m, n))
        # magnitude ties of either sign and signed zeros
        yield rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(m, n))
        yield rng.standard_normal((m, 2 * n))[:, ::2]  # strided columns


def test_sign_fix_equals_the_per_column_loop():
    cases = 0
    for v in _sign_cases():
        before = v.tobytes()
        got, got_signs = _sign_fix(v)
        want, want_signs = sign_fix_oracle(v)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_signs.tobytes() == want_signs.tobytes()
        assert v.tobytes() == before  # the input is left as it was
        cases += 1
    assert cases == 606


def test_eigen_rejects_asymmetry_with_report():
    h = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen_topk(h, 1)
    with pytest.raises(ValueError, match="not square"):
        symmetric_eigen_topk(np.ones((2, 3)), 1)


def test_require_symmetric_reports_the_worst_entry_within_its_tolerance():
    with pytest.raises(ValueError, match=r"not square: shape \(2, 3\)"):
        require_symmetric(np.ones((2, 3)))
    h = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0, 3.5, 1.0]])
    with pytest.raises(ValueError, match=r"not symmetric: \|a\[1,2\] - a\[2,1\]\| = 5\.000e-01"):
        require_symmetric(h)
    # within 1e-10 * max(max|a|, 1) counts as symmetric
    h[1, 2] = 3.5 - 1e-10
    assert require_symmetric(h)[1, 2] == h[1, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_rejects_non_finite_input(bad):
    # a NaN asymmetry compares False against the tolerance, so the
    # symmetry check alone would pass [[1, nan], [nan, 1]] to eigh
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, bad], [0.0, bad, 1.0]])
    with pytest.raises(ValueError, match=r"matrix has non-finite entries, first a\[1,2\]"):
        symmetric_eigen_topk(h, 1)
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigen_topk([[1.0, np.nan], [np.nan, 1.0]], 1)


def test_eigen_rejects_bad_k():
    with pytest.raises(ValueError, match="out of range"):
        symmetric_eigen_topk(np.eye(3), 0)
    with pytest.raises(ValueError, match="out of range"):
        symmetric_eigen_topk(np.eye(3), 4)


def test_eigen_tie_break_by_original_index():
    pairs = symmetric_eigen_topk(np.diag([2.0, 5.0, 2.0]), 3)
    np.testing.assert_allclose(pairs.values, [5.0, 2.0, 2.0], atol=1e-12)
    # among the tied eigenvalues, index 0 comes before index 2
    np.testing.assert_allclose(pairs.vectors[:, 1], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pairs.vectors[:, 2], [0, 0, 1], atol=1e-12)


def test_eigen_tie_across_the_kth_value_keeps_the_pairs_lapack_orders_last():
    # LAPACK orders the tied 2s by original index and the top-2 request
    # takes its last two pairs; with every pair computed this was e2, e1
    pairs = symmetric_eigen_topk(np.diag([2.0, 5.0, 2.0]), 2)
    np.testing.assert_allclose(pairs.values, [5.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(pairs.vectors, [[0, 0], [1, 0], [0, 1]], atol=1e-12)


# ---------------------------------------------------------------------------
# truncated_svd / rank_k_reconstruct


def test_svd_synonymy_rank2_published_values():
    recon = rank_k_reconstruct(truncated_svd(SparseMatrix.from_dense(SYNONYMY), 2))
    np.testing.assert_allclose(recon, SYNONYMY_RANK2, atol=0.05)


def test_svd_polysemy_rank2_published_values():
    recon = rank_k_reconstruct(truncated_svd(SparseMatrix.from_dense(POLYSEMY), 2))
    np.testing.assert_allclose(recon, POLYSEMY_RANK2, atol=0.005)


def test_rank_k_reconstruct_defaults_to_every_triplet():
    a = np.random.default_rng(3).random((9, 6))
    f = truncated_svd(a, 6)
    full_product = (f.left * f.values) @ f.right.T
    assert rank_k_reconstruct(f).tobytes() == full_product.tobytes()


@pytest.mark.parametrize("k", [0, 5])
def test_rank_k_reconstruct_rejects_k_outside_the_factors(k):
    f = truncated_svd(np.random.default_rng(3).random((9, 6)), 4)
    with pytest.raises(ValueError, match=f"k={k} out of range"):
        rank_k_reconstruct(f, k)


def test_svd_exact_rank_reproduces_input():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
    recon = rank_k_reconstruct(truncated_svd(a, 3))
    assert frobenius_norm(a - recon) <= 1e-8 * frobenius_norm(a)


def test_svd_factor_relations():
    rng = np.random.default_rng(6)
    a = rng.random((7, 4))
    f = truncated_svd(a, 3)
    resid = np.abs(a @ f.right - f.left * f.values).max()
    assert resid <= 1e-6 * frobenius_norm(a)
    assert np.all(np.diff(f.values) <= 0)


def test_svd_rejects_bad_k():
    with pytest.raises(ValueError, match="out of range"):
        truncated_svd(np.ones((3, 2)), 0)
    with pytest.raises(ValueError, match="out of range"):
        truncated_svd(np.ones((3, 2)), 3)


def test_decompositions_are_bitwise_deterministic():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((7, 5))
    f1 = truncated_svd(a, 4)
    f2 = truncated_svd(a.copy(), 4)
    np.testing.assert_array_equal(f1.left, f2.left)
    np.testing.assert_array_equal(f1.values, f2.values)
    np.testing.assert_array_equal(f1.right, f2.right)
    h = a @ a.T
    p1 = symmetric_eigen_topk(h, 3)
    p2 = symmetric_eigen_topk(h.copy(), 3)
    np.testing.assert_array_equal(p1.values, p2.values)
    np.testing.assert_array_equal(p1.vectors, p2.vectors)


def test_svd_wide_matrix_matches_tall_transpose():
    rng = np.random.default_rng(8)
    a = rng.random((3, 8))
    f = truncated_svd(a, 2)
    g = truncated_svd(a.T, 2)
    np.testing.assert_allclose(f.values, g.values, atol=1e-10)
    np.testing.assert_allclose(
        rank_k_reconstruct(f), rank_k_reconstruct(g).T, atol=1e-10
    )


def test_svd_full_rank_of_rank_deficient_input():
    # two independent columns out of four; the null space must still come
    # back orthonormal
    a = np.zeros((5, 4))
    a[:, 0] = [1, 2, 0, 0, 1]
    a[:, 2] = [0, 1, 1, 0, 0]
    f = truncated_svd(a, 4)
    assert f.values[2] == 0.0 and f.values[3] == 0.0
    dev = np.abs(f.left.T @ f.left - np.eye(4)).max()
    assert dev < 1e-8
    np.testing.assert_allclose(rank_k_reconstruct(f), a, atol=1e-12)


def test_reconstruct_residual_matches_trailing_spectrum():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 4))
    sigma = np.linalg.svd(a, compute_uv=False)  # independent oracle
    recon = rank_k_reconstruct(truncated_svd(a, 2))
    lhs = frobenius_norm(a - recon) ** 2
    rhs = float(np.sum(sigma[2:] ** 2))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_factor_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="shapes"):
        SvdFactors(np.eye(3), np.array([1.0, 0.5]), np.eye(3))
    with pytest.raises(ValueError, match="non-increasing"):
        SvdFactors(np.eye(2), np.array([0.5, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="nonnegative"):
        SvdFactors(np.eye(2), np.array([1.0, -0.5]), np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        SvdFactors(np.ones((2, 2)), np.array([1.0, 0.5]), np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        EigenPairs(np.array([1.0, 0.5]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="vector count does not match value count"):
        EigenPairs(np.array([1.0, 0.5]), np.eye(3))
    with pytest.raises(ValueError, match="eigenvalues must be non-increasing"):
        EigenPairs(np.array([0.5, 1.0]), np.eye(2))


# ---------------------------------------------------------------------------
# nmf_factorize


def test_nmf_recovers_rank_one_product():
    a = np.outer([1.0, 2.0], [3.0, 4.0])
    b, c = nmf_factorize(a, 1, 200, seed=0)
    assert frobenius_norm(a - b @ c) < 1e-4


def test_nmf_factors_nonnegative():
    rng = np.random.default_rng(12)
    a = rng.random((6, 5))
    b, c = nmf_factorize(a, 3, 50, seed=1)
    assert b.min() >= 0 and c.min() >= 0


def test_nmf_deterministic_for_fixed_seed():
    rng = np.random.default_rng(13)
    a = rng.random((5, 7))
    b1, c1 = nmf_factorize(a, 2, 30, seed=42)
    b2, c2 = nmf_factorize(a, 2, 30, seed=42)
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(c1, c2)


def test_nmf_rejects_negative_input():
    a = np.random.default_rng(15).random((5, 4))
    with pytest.raises(ValueError, match="nonnegative"):
        nmf_factorize(np.array([[1.0, -0.1]]), 1, 5, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        nmf_factorize(a, 0, 3, seed=0)
    for iterations in (0, -1):
        with pytest.raises(ValueError, match="iterations must be"):
            nmf_factorize(a, 2, iterations, seed=0)


def test_nmf_objective_monotone():
    rng = np.random.default_rng(14)
    a = rng.random((8, 6))
    errors = nmf_error_trace(a, 3, 60, seed=3)
    assert np.all(np.diff(errors) <= 1e-10)


def _random_sparse(rng, m, n, density):
    # every column gets an entry, as every document has a term
    flat = np.union1d(rng.choice(m * n, int(density * m * n), replace=False),
                      np.arange(n) % m * n + np.arange(n))
    return SparseMatrix(m, n, flat // n, flat % n, rng.random(flat.size) + 0.05)


@pytest.mark.parametrize("m, n, density, k, iterations", [
    (30, 12, 0.2, 3, 60),
    (120, 40, 0.03, 8, 100),
    (400, 82, 0.023, 16, 200),
    (50, 200, 0.05, 5, 80),
    (9, 9, 0.6, 9, 40),
])
def test_nmf_on_csr_matches_the_dense_loop(m, n, density, k, iterations):
    # the oracle sums the A-products in another order and keeps subnormal entries
    a = _random_sparse(np.random.default_rng(m * n + k), m, n, density)
    b, c = nmf_factorize(a, k, iterations, seed=k)
    ob, oc = nmf_dense_oracle(a, k, iterations, seed=k)
    for got, want in ((b, ob), (c, oc)):
        # entries driven towards 0 carry only absolute accuracy
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        assert not np.any((got > 0) & (got < np.finfo(float).tiny))


def test_nmf_sparse_input_and_its_dense_twin_agree_bitwise():
    rng = np.random.default_rng(21)
    for m, n, density in ((40, 15, 0.1), (15, 60, 0.3)):
        s = _random_sparse(rng, m, n, density)
        order = rng.permutation(s.nnz)  # triplet order must not matter
        shuffled = SparseMatrix(m, n, s.row[order], s.col[order], s.data[order])
        for a in (s.toarray(), shuffled):
            for got, want in zip(nmf_factorize(a, 4, 30, seed=2), nmf_factorize(s, 4, 30, seed=2)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(nmf_error_trace(a, 4, 10, seed=2),
                                          nmf_error_trace(s, 4, 10, seed=2))
            np.testing.assert_array_equal(column_normalize(a).toarray(),
                                          column_normalize(s).toarray())


def test_nmf_of_a_large_sparse_matrix_stays_sparse():
    rng = np.random.default_rng(23)
    a = _random_sparse(rng, 20_000, 1_500, 0.001)
    import scipy.sparse  # noqa: F401  (its import is not the factorization's memory)

    tracemalloc.start()
    try:
        b, c = nmf_factorize(column_normalize(a), 2, 3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.shape == (20_000, 2) and c.shape == (2, 1_500)
    # the dense 20000 x 1500 matrix alone would take 240 MB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# kmeans


def _best_two_partition_inertia(x):
    # brute force over every 2-labeling of <= 10 points
    n = len(x)
    best = np.inf
    for bits in itertools.product((0, 1), repeat=n):
        lab = np.array(bits)
        total = 0.0
        for c in (0, 1):
            pts = x[lab == c]
            if len(pts):
                total += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def _inertia(x, labels):
    total = 0.0
    for c in np.unique(labels):
        pts = x[labels == c]
        total += ((pts - pts.mean(axis=0)) ** 2).sum()
    return total


def test_kmeans_each_point_own_cluster():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    labels = kmeans(x, 4, seed=0)
    assert len(set(labels.tolist())) == 4
    assert _inertia(x, labels) == 0.0


def test_kmeans_separated_blobs_match_exhaustive_oracle():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2)) + np.array([100.0, 0.0])
    x = np.vstack([a, b])
    labels = kmeans(x, 2, seed=0)
    assert _inertia(x, labels) == pytest.approx(_best_two_partition_inertia(x), rel=1e-12)
    assert len(set(labels[:5].tolist())) == 1
    assert len(set(labels[5:].tolist())) == 1
    assert labels[0] != labels[5]


def test_kmeans_identical_points_zero_inertia():
    x = np.ones((6, 3))
    labels = kmeans(x, 2, seed=5)
    assert _inertia(x, labels) == 0.0


def test_kmeans_rejects_bad_arguments():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="out of range"):
        kmeans(x, 4, seed=0)
    with pytest.raises(ValueError, match="points must be a 2-D array with rows as points"):
        kmeans(np.zeros(3), 1, seed=0)
    # one NaN point makes every restart's inertia NaN, so no run would be kept
    for bad in (np.nan, np.inf):
        x = np.random.default_rng(3).random((6, 2))
        x[2, 1] = x[4, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite coordinates in points \[2, 4\]$"):
            kmeans(x, 2, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(17)
    x = rng.random((20, 3))
    a = kmeans(x, 3, seed=9)
    b = kmeans(x, 3, seed=9)
    np.testing.assert_array_equal(a, b)
