"""Randomized property suites, 100+ trials each under a fixed master seed:
best-approximation dominance, trace optima, residual identities,
completion monotonicity/boundedness/idempotence/determinism, and the
chain-propagation equivalence."""

import numpy as np
import pytest

from lsikit.graphs import bipartite_normalize
from lsikit.lsi import complete, completion_step, word_similarity
from lsikit.matrix import (
    _lloyd,
    frobenius_norm,
    rank_k_reconstruct,
    symmetric_eigen_topk,
    truncated_svd,
)

from oracle_utils import bipartite_embed_oracle, chain_oracle, nmf_error_trace, random_orthonormal

MASTER_SEED = 20260810
TRIALS = 100


def _random_shape(rng, lo=2, hi=8):
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def test_best_rank_approximation_dominates_random_competitors():
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(TRIALS):
        m, n = _random_shape(rng, 2, 8)
        s = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, n))
        approx = rank_k_reconstruct(truncated_svd(a, s))
        competitor = rng.standard_normal((m, s)) @ rng.standard_normal((s, n))
        assert frobenius_norm(a - approx) <= frobenius_norm(a - competitor) + 1e-9


def test_trace_maximum_of_symmetric_matrices():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, n))
        h = x + x.T
        top = symmetric_eigen_topk(h, k).vectors
        lam = np.sort(np.linalg.eigvalsh(h))[::-1]  # independent oracle
        optimum = float(np.trace(top.T @ h @ top))
        assert optimum == pytest.approx(float(lam[:k].sum()), abs=1e-8)
        challenger = random_orthonormal(rng, n, k)
        assert float(np.trace(challenger.T @ h @ challenger)) <= optimum + 1e-9


def test_trace_maximum_of_rectangular_matrices():
    rng = np.random.default_rng(MASTER_SEED + 2)
    for _ in range(TRIALS):
        m, n = _random_shape(rng, 2, 7)
        k = int(rng.integers(1, min(m, n) + 1))
        r = rng.standard_normal((m, n))
        f = truncated_svd(r, k)
        sigma_sum = float(np.linalg.svd(r, compute_uv=False)[:k].sum())  # oracle
        attained = float(np.trace(f.left.T @ r @ f.right))
        assert attained == pytest.approx(sigma_sum, abs=1e-8)
        x = random_orthonormal(rng, m, k)
        y = random_orthonormal(rng, n, k)
        assert float(np.trace(x.T @ r @ y)) <= sigma_sum + 1e-9


def test_residual_identity_and_orthonormality():
    rng = np.random.default_rng(MASTER_SEED + 3)
    for _ in range(TRIALS):
        m, n = _random_shape(rng, 2, 8)
        k = int(rng.integers(1, min(m, n) + 1))
        a = rng.standard_normal((m, n))
        f = truncated_svd(a, min(m, n))
        cut = f.__class__(f.left[:, :k], f.values[:k], f.right[:, :k])
        lhs = frobenius_norm(a - rank_k_reconstruct(cut)) ** 2
        rhs = float(np.sum(f.values[k:] ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)
        assert np.abs(f.left.T @ f.left - np.eye(min(m, n))).max() < 1e-8
        assert np.abs(f.right.T @ f.right - np.eye(min(m, n))).max() < 1e-8


def test_block_embedding_matches_singular_subspaces():
    rng = np.random.default_rng(MASTER_SEED + 4)
    for _ in range(TRIALS):
        m, n = _random_shape(rng, 2, 6)
        k = int(rng.integers(1, min(m, n) + 1))
        a = rng.random((m, n)) + 0.05
        abar = bipartite_normalize(a)
        f = truncated_svd(abar, k)
        emb = bipartite_embed_oracle(abar)
        vectors = symmetric_eigen_topk(emb, k).vectors
        for block, basis in ((vectors[:m], f.left), (vectors[m:], f.right)):
            q, _ = np.linalg.qr(block)
            resid = np.linalg.norm(q - basis @ (basis.T @ q))
            assert resid < 1e-6


def test_nmf_error_never_increases():
    rng = np.random.default_rng(MASTER_SEED + 5)
    for trial in range(TRIALS):
        m, n = _random_shape(rng, 2, 7)
        k = int(rng.integers(1, 4))
        a = rng.random((m, n))
        errors = nmf_error_trace(a, k, 25, seed=trial)
        assert np.all(np.diff(errors) <= 1e-10)


def test_kmeans_inertia_never_increases_within_a_run():
    rng = np.random.default_rng(MASTER_SEED + 6)
    for _ in range(TRIALS):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 6) + 1))
        x = rng.standard_normal((n, d))
        centers = x[rng.choice(n, size=k, replace=False)].copy()
        _, _, history = _lloyd(x, centers)
        assert np.all(np.diff(history) <= 1e-10)


def _random_nonnegative(rng, max_dim=5):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    a = rng.random((m, n)) * 3.0
    mask = rng.random((m, n)) < 0.5
    a = np.where(mask, a, 0.0)
    # keep at least one nonzero per resulting matrix
    if not a.any():
        a[0, 0] = 1.0
    return a


def test_completion_monotone_and_bounded():
    rng = np.random.default_rng(MASTER_SEED + 7)
    for _ in range(TRIALS):
        a = _random_nonnegative(rng)
        with np.errstate(all="ignore"):
            sim = word_similarity(a)
        col_max = a.max(axis=0)
        prev = a
        for _ in range(4):
            nxt = completion_step(prev, sim)
            assert np.all(nxt >= prev)                      # monotone
            assert np.all(nxt <= col_max[None, :] + 1e-12)  # bounded by column max
            prev = nxt


def test_completion_fixpoint_idempotent_and_deterministic():
    rng = np.random.default_rng(MASTER_SEED + 8)
    for _ in range(TRIALS):
        a = _random_nonnegative(rng)
        fixed1, trace1 = complete(a, maxiter=60)
        fixed2, trace2 = complete(a.copy(), maxiter=60)
        np.testing.assert_array_equal(fixed1, fixed2)   # bitwise determinism
        assert trace1 == trace2
        if trace1.converged:
            again = completion_step(fixed1, word_similarity(a))
            np.testing.assert_array_equal(again, fixed1)


def test_completion_matches_chain_enumeration():
    rng = np.random.default_rng(MASTER_SEED + 9)
    for _ in range(TRIALS):
        a = _random_nonnegative(rng, max_dim=5)
        sim = word_similarity(a)
        state = a
        for _ in range(3):
            state = completion_step(state, sim)
        np.testing.assert_allclose(state, chain_oracle(a, 3), rtol=1e-10, atol=1e-12)


@pytest.fixture(autouse=True)
def _silence_zero_row_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*zero rows.*")
        yield
