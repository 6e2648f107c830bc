"""The LAPACK-backed eigen and SVD solvers: byte-identical outputs across
BLAS thread counts, and agreement with plain-loop cyclic Jacobi oracles on
tall, wide, rank-deficient and repeated-spectrum inputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsikit
from lsikit.matrix import EPS, rank_k_reconstruct, symmetric_eigen_topk, truncated_svd

from oracle_utils import jacobi_eigh_oracle, jacobi_svd_oracle, random_orthonormal

MASTER_SEED = 20261017
TRIALS = 30
SVD_KINDS = ("tall", "wide", "rank_deficient", "repeated")
EIGEN_KINDS = ("random", "rank_deficient", "diagonal_ties", "repeated")

# Zipf-weighted term-document matrices at ADI size (about 1.2k x 82):
# uniform random matrices do not expose thread-dependent LAPACK paths.
_THREAD_SCRIPT = """
import hashlib
import numpy as np
from lsikit.matrix import symmetric_eigen_topk, truncated_svd

def zipf_matrix(seed, words=10000, docs=82):
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, words + 1) ** 0.9
    p /= p.sum()
    counts = np.zeros((words, docs))
    for j in range(docs):
        np.add.at(counts[:, j], rng.choice(words, size=int(rng.integers(15, 42)), p=p), 1.0)
    return np.log1p(counts[counts.any(axis=1)])

h = hashlib.sha1()
for seed in range(4):
    a = zipf_matrix(seed)
    f = truncated_svd(a, min(a.shape))
    for x in (f.left, f.values, f.right):
        h.update(x.tobytes())
x = np.random.default_rng(99).standard_normal((200, 200))
pairs = symmetric_eigen_topk(x + x.T, 200)
h.update(pairs.values.tobytes())
h.update(pairs.vectors.tobytes())
print(h.hexdigest())
"""


def _digest_at(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(lsikit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return out.stdout.strip()


def test_outputs_identical_across_blas_thread_counts():
    assert _digest_at(1) == _digest_at(2)


# ---------------------------------------------------------------------------
# differential tests against the Jacobi oracles


def _svd_input(kind, rng):
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    if kind == "tall":
        return rng.standard_normal((max(m, n) + 1, min(m, n)))
    if kind == "wide":
        return rng.standard_normal((min(m, n), max(m, n) + 1))
    if kind == "rank_deficient":
        # integer factors make the product exactly rank r
        r = int(rng.integers(1, min(m, n)))
        b = rng.integers(-3, 4, (m, r)).astype(float)
        return b @ rng.integers(-3, 4, (r, n)).astype(float)
    # repeated singular values
    k = min(m, n)
    sig = np.sort(rng.choice([1.0, 2.0, 3.0], size=k))[::-1]
    return (random_orthonormal(rng, m, k) * sig) @ random_orthonormal(rng, n, k).T


def _eigen_input(kind, rng):
    n = int(rng.integers(2, 9))
    if kind == "random":
        x = rng.standard_normal((n, n))
        return x + x.T
    if kind == "rank_deficient":
        b = rng.integers(-3, 4, (n, int(rng.integers(1, n)))).astype(float)
        return b @ b.T
    if kind == "diagonal_ties":
        return np.diag(rng.integers(-2, 3, n).astype(float))
    lam = rng.choice([-1.0, 0.5, 2.0], size=n)
    q = random_orthonormal(rng, n, n)
    h = (q * lam) @ q.T
    return (h + h.T) / 2


def _gaps(values, scale):
    # gap after each leading block; the full block is always well defined
    return np.append(values[:-1] - values[1:], np.inf) > 1e-8 * scale


@pytest.mark.parametrize("kind", SVD_KINDS)
def test_svd_matches_jacobi_oracle(kind):
    rng = np.random.default_rng([MASTER_SEED, 0, SVD_KINDS.index(kind)])
    for _ in range(TRIALS):
        a = _svd_input(kind, rng)
        ref_values, ref_left, ref_right = jacobi_svd_oracle(a)
        f = truncated_svd(a, min(a.shape))
        scale = max(ref_values[0], EPS)
        np.testing.assert_allclose(f.values, ref_values, rtol=0, atol=1e-10 * scale)
        # values at or below the cutoff are exactly zero, the rest are not
        cutoff = max(a.shape) * EPS * ref_values[0]
        np.testing.assert_array_equal(f.values == 0.0, ref_values <= cutoff)
        for k in np.flatnonzero(_gaps(ref_values, scale)) + 1:
            ref = (ref_left[:, :k] * ref_values[:k]) @ ref_right[:, :k].T
            lib = rank_k_reconstruct(truncated_svd(a, int(k)))
            np.testing.assert_allclose(lib, ref, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("kind", EIGEN_KINDS)
def test_eigen_matches_jacobi_oracle(kind):
    rng = np.random.default_rng([MASTER_SEED, 1, EIGEN_KINDS.index(kind)])
    for _ in range(TRIALS):
        h = _eigen_input(kind, rng)
        n = h.shape[0]
        ref_values, ref_vectors = jacobi_eigh_oracle(h)
        pairs = symmetric_eigen_topk(h, n)
        scale = max(np.abs(ref_values).max(), EPS)
        np.testing.assert_allclose(pairs.values, ref_values, rtol=0, atol=1e-10 * scale)
        for k in np.flatnonzero(_gaps(ref_values, scale)) + 1:
            top = symmetric_eigen_topk(h, int(k)).vectors
            ref = ref_vectors[:, :k]
            # projectors are scale-free: 1e-10 * scale on scale * P
            np.testing.assert_allclose(top @ top.T, ref @ ref.T, rtol=0, atol=1e-10)
