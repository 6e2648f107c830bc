"""Kernel affinities, their degree normalization, and the rectangular
row/column normalization."""

import dataclasses

import numpy as np
import pytest

from lsikit.graphs import (
    AffinityGraph,
    KernelSpec,
    bipartite_normalize,
    kernel_affinity,
    normalize_affinity,
)
from lsikit.matrix import SparseMatrix, truncated_svd

from conftest import SYNONYMY
from oracle_utils import bipartite_embed_oracle


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


def test_sigmoid_kernel_hand_example():
    pts = np.array([[1.0, 1.0], [0.0, 1.0]])  # a_1 . a_1 = 1, a_1 . a_2 = 1, a_2 . a_2 = 2
    g = kernel_affinity(pts, KernelSpec("sigmoid", c=0.5, theta=0.25))
    np.testing.assert_allclose(g.weights, np.tanh([[0.75, 0.75], [0.75, 1.25]]), rtol=1e-15)
    with pytest.raises(ValueError, match="sigmoid kernel produced negative"):
        kernel_affinity(pts, KernelSpec("sigmoid", c=1.0, theta=-1.5))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_nassoc_two_vertex_graph():
    g = AffinityGraph(np.array([[0.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_allclose(normalize_affinity(g), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_nassoc_spectral_radius_at_most_one():
    rng = np.random.default_rng(4)
    x = rng.random((4, 4))
    w = x + x.T
    # eigvalsh: an independent oracle
    top = np.linalg.eigvalsh(normalize_affinity(AffinityGraph(w))).max()
    assert top <= 1.0 + 1e-10


def test_normalize_affinity_is_bitwise_the_degree_scaled_weights():
    # the formula of the former nassoc scheme, kept bit for bit: out-degrees
    # d are row sums, and the result is W * outer(d^-1/2, d^-1/2)
    rng = np.random.default_rng(14)
    spec = KernelSpec("gaussian", alpha=0.6)
    for trial in range(50):
        n = int(rng.integers(1, 30))
        if trial % 2:
            w = kernel_affinity(rng.standard_normal((2, n)), spec).weights
        else:
            x = rng.random((n, n)) + 0.01
            w = x + x.T
        inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
        expected = w * np.outer(inv_sqrt, inv_sqrt)
        np.testing.assert_array_equal(normalize_affinity(AffinityGraph(w)), expected)


def test_normalize_rejects_isolated_vertex_with_list():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(ValueError, match=r"isolated/zero-weight vertices \[2\]"):
        normalize_affinity(AffinityGraph(w))


def test_an_affinity_graph_is_only_its_weights():
    assert [f.name for f in dataclasses.fields(AffinityGraph)] == ["weights"]


def test_normalization_preserves_zero_pattern():
    rng = np.random.default_rng(6)
    x = rng.random((6, 6))
    w = np.where(x + x.T > 1.0, x + x.T, 0.0)
    w = (w + w.T) / 2
    np.fill_diagonal(w, 1.0)  # keep all degrees positive
    out = normalize_affinity(AffinityGraph(w))
    np.testing.assert_array_equal(out == 0, w == 0)


def test_normalize_affinity_exactly_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = rng.random((7, 7)) + 0.01
        out = normalize_affinity(AffinityGraph(x + x.T))
        np.testing.assert_array_equal(out, out.T)  # bitwise


def test_affinity_graph_validation():
    with pytest.raises(ValueError, match="square"):
        AffinityGraph(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        AffinityGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        AffinityGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    # a NaN compares False with every bound, so it would pass the
    # symmetry and sign checks
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="affinity matrix has non-finite weights"):
            AffinityGraph(np.array([[1.0, 1.0, bad], [1.0, 1.0, 1.0], [bad, 1.0, 1.0]]))


def test_sparse_affinity_graph_validation_matches_dense():
    # a SparseMatrix is checked on its dense form, with the same messages
    for form in (np.asarray, SparseMatrix.from_dense):
        with pytest.raises(ValueError, match="square"):
            AffinityGraph(form(np.ones((2, 3))))
        with pytest.raises(ValueError, match="nonnegative"):
            AffinityGraph(form(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        # asymmetry may reach 1e-12 * max(|w|, 1), entries absent on one side included
        AffinityGraph(form(np.array([[0.0, 1e3], [1e3 + 1e-10, 0.0]])))
        for w in ([[0.0, 1.0], [1.0 + 1e-11, 0.0]], [[0.0, 2e-12], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                AffinityGraph(form(np.array(w)))
        AffinityGraph(form(np.zeros((3, 3))))

def test_kernel_overflow_to_non_finite_weights_is_rejected():
    # finite points whose gram entries overflow to inf
    pts = np.array([[1e200, 2e200]])
    for spec in (KernelSpec("gaussian", alpha=1.0), KernelSpec("polynomial", d=2)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite weights"):
            kernel_affinity(pts, spec)


# ---------------------------------------------------------------------------
# rectangular normalization


def test_bipartite_embed_eigenvalues_pair_with_singular_values():
    abar = bipartite_normalize(SYNONYMY)
    sig = truncated_svd(abar, 5).values
    emb = bipartite_embed_oracle(abar)
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


def test_bipartite_normalize_names_every_zero_row_before_any_column():
    with pytest.raises(ValueError, match=r"normalization undefined for zero-sum rows \[0, 2\]$"):
        bipartite_normalize(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))


def test_embedding_then_normalizing_matches_rectangular_normalization():
    # degree-normalizing the square embedding and normalizing the
    # rectangle directly must produce the same off-diagonal block
    rng = np.random.default_rng(7)
    a = rng.random((5, 4)) + 0.05
    whole = normalize_affinity(AffinityGraph(bipartite_embed_oracle(a)))
    np.testing.assert_allclose(whole[:5, 5:], bipartite_normalize(a), atol=1e-14)


def test_rectangular_normalization_preserves_zero_pattern():
    rng = np.random.default_rng(8)
    a = np.where(rng.random((6, 5)) > 0.5, rng.random((6, 5)), 0.0)
    a[:, a.sum(axis=0) == 0] = 0.3  # keep sums positive
    a[a.sum(axis=1) == 0, :] = 0.3
    np.testing.assert_array_equal(bipartite_normalize(a) == 0, a == 0)


@pytest.mark.parametrize("build, message", [
    (lambda: kernel_affinity(np.ones(3), KernelSpec("gaussian", alpha=1.0)),
     "points must be a 2-D array with columns as points"),
    (lambda: kernel_affinity(np.array([[1.0, np.nan, 1.0, 1.0], [1.0, 1.0, 1.0, np.nan]]),
                             KernelSpec("gaussian", alpha=1.0)),
     r"non-finite coordinates in points \[1, 3\]$"),
    (lambda: kernel_affinity(np.array([[np.inf, 1.0], [1.0, 1.0]]), KernelSpec("polynomial")),
     r"non-finite coordinates in points \[0\]$"),
    (lambda: bipartite_normalize(np.array([[1.0, -1.0]])), "input must be nonnegative"),
], ids=["kernel-points-not-2-D", "kernel-points-nan", "kernel-points-inf", "normalize-negative"])
def test_graph_builders_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
