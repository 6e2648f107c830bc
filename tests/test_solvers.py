"""The LAPACK-backed eigen and SVD solvers: byte-identical outputs across
BLAS thread counts, and agreement with plain-loop cyclic Jacobi oracles on
tall, wide, rank-deficient and repeated-spectrum inputs."""

import ctypes
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsikit
from lsikit import matrix
from lsikit.matrix import (EPS, blas_on_calling_thread, rank_k_reconstruct, symmetric_eigen_topk,
                           truncated_svd)

from oracle_utils import jacobi_eigh_oracle, jacobi_svd_oracle, random_orthonormal

MASTER_SEED = 20261017
TRIALS = 30
SVD_KINDS = ("tall", "wide", "rank_deficient", "repeated")
EIGEN_KINDS = ("random", "rank_deficient", "diagonal_ties", "repeated")

# Zipf-weighted term-document matrices at ADI size (about 1.2k x 82):
# uniform random matrices do not expose thread-dependent LAPACK paths.
# The 3076 x 300 SVD, the 400 x 400 eigenproblem and the rank-100 NMF
# differed in the last bits between 1 and 2 OpenBLAS threads before
# the solvers ran BLAS on the calling thread.  The eigenproblems are
# solved for their top 2, top 10 and all eigenpairs.  The NMF runs under the
# switch, as every CLI command does.  With argument "off" the switch
# finds no OpenBLAS and does nothing.
_THREAD_SCRIPT = """
import hashlib
import sys
import numpy as np
from lsikit import matrix
from lsikit.matrix import (blas_on_calling_thread, nmf_factorize, symmetric_eigen_topk,
                           truncated_svd)

if sys.argv[1:] == ["off"]:
    matrix._openblas_threads_setter = lambda: None

def zipf_matrix(seed, words=10000, docs=82):
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, words + 1) ** 0.9
    p /= p.sum()
    counts = np.zeros((words, docs))
    for j in range(docs):
        np.add.at(counts[:, j], rng.choice(words, size=int(rng.integers(15, 42)), p=p), 1.0)
    return np.log1p(counts[counts.any(axis=1)])

h = hashlib.sha1()
for a in [zipf_matrix(seed) for seed in range(4)] + [zipf_matrix(0, docs=300)]:
    f = truncated_svd(a, min(a.shape))
    for x in (f.left, f.values, f.right):
        h.update(x.tobytes())
for n in (200, 400):
    x = np.random.default_rng(99).standard_normal((n, n))
    for k in (2, 10, n):
        pairs = symmetric_eigen_topk(x + x.T, k)
        h.update(pairs.values.tobytes())
        h.update(pairs.vectors.tobytes())
with blas_on_calling_thread():
    for x in nmf_factorize(zipf_matrix(0, docs=300), 100, 5, 0):
        h.update(x.tobytes())
print(h.hexdigest())
"""


@functools.cache
def _digest_at(threads, *args, script=_THREAD_SCRIPT):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(lsikit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, check=True,
        capture_output=True, text=True, timeout=600,
    )
    return out.stdout.strip()


def test_outputs_identical_across_blas_thread_counts():
    assert _digest_at(1) == _digest_at(2)


def test_without_openblas_the_switch_changes_no_byte():
    # no switch at 1 thread gives the bytes the switch gives at 2
    assert _digest_at(1, "off") == _digest_at(2)


def test_switch_runs_one_thread_and_restores_the_count():
    setter = matrix._openblas_threads_setter()
    if setter is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")

    def count():
        n = setter(1)
        setter(n)
        return n

    before = count()
    with blas_on_calling_thread():
        assert count() == 1
        with blas_on_calling_thread():
            assert count() == 1
        assert count() == 1
    assert count() == before
    with pytest.raises(RuntimeError), blas_on_calling_thread():
        raise RuntimeError
    assert count() == before


def test_only_the_outermost_block_calls_openblas(monkeypatch):
    calls = []

    def setter(n):
        calls.append(n)
        return 4 if n == 1 else 1

    monkeypatch.setattr(matrix, "_openblas_threads_setter", lambda: setter)
    with blas_on_calling_thread():
        with blas_on_calling_thread(), blas_on_calling_thread():
            pass
        assert calls == [1]
    assert calls == [1, 4]
    with pytest.raises(RuntimeError), blas_on_calling_thread(), blas_on_calling_thread():
        raise RuntimeError
    assert calls == [1, 4, 1, 4]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
def test_a_block_in_a_process_forked_inside_a_block_starts_no_thread():
    # OpenBLAS stops its pool before a fork and restarts it at the next
    # thread-count call; sweep's NMF worker enters a block in such a child
    if matrix._openblas_threads_setter() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    script = """
import os, sys
import numpy as np
from lsikit.matrix import blas_on_calling_thread
a = np.ones((200, 200))
a @ a
with blas_on_calling_thread():
    pid = os.fork()
    if pid == 0:
        with blas_on_calling_thread():
            a @ a
        os._exit(len(os.listdir("/proc/self/task")))
    _, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, (str(Path(lsikit.__file__).parent.parent),
                                                        os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.split() == ["1"]  # the child's one thread: no pool thread restarted


def test_switch_does_nothing_when_the_symbol_is_absent(monkeypatch):
    class NoOpenBlas:
        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoOpenBlas)
    matrix._openblas_threads_setter.cache_clear()
    try:
        assert matrix._openblas_threads_setter() is None
        a = np.random.default_rng(3).random((40, 9))
        with blas_on_calling_thread():
            f = truncated_svd(a, 9)
    finally:
        matrix._openblas_threads_setter.cache_clear()
    assert rank_k_reconstruct(f).tobytes() == rank_k_reconstruct(truncated_svd(a, 9)).tobytes()


# The shape of the paper's Medline matrix (8237 x 1033, 62k nonzeros):
# its full SVD, the rank-30 reconstruction GEMM and a query GEMV, under
# the switch as in the CLI.
_MED_SCRIPT = """
import hashlib
import numpy as np
from lsikit.matrix import blas_on_calling_thread, rank_k_reconstruct, truncated_svd

rng = np.random.default_rng(5)
a = np.zeros((8237, 1033))
a[rng.integers(0, 8237, 62075), rng.integers(0, 1033, 62075)] = np.log1p(rng.integers(1, 4, 62075))
h = hashlib.sha1()
with blas_on_calling_thread():
    f = truncated_svd(a, 1033)
    a30 = rank_k_reconstruct(f, 30)
    q = np.where(rng.random(8237) < 0.002, 1.0, 0.0)
    for x in (f.left, f.values, f.right, a30, q @ a30):
        h.update(x.tobytes())
print(h.hexdigest())
"""


@pytest.mark.slow
def test_medline_shape_identical_across_blas_thread_counts():
    assert _digest_at(1, script=_MED_SCRIPT) == _digest_at(2, script=_MED_SCRIPT)


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


def test_scipy_fallback_gives_the_same_pairs(monkeypatch):
    # where numpy's BLAS has no LAPACKE_dsyevr, scipy.linalg.eigh runs the
    # same LAPACK routine: same values, subspaces and choice among ties
    rng = np.random.default_rng([MASTER_SEED, 2])
    inputs = [np.diag([2.0, 5.0, 2.0])]
    inputs += [_eigen_input(kind, rng) for kind in EIGEN_KINDS for _ in range(TRIALS)]

    def every_k():
        return [[symmetric_eigen_topk(h, k) for k in range(1, h.shape[0] + 1)] for h in inputs]

    native = every_k()

    class NoLapacke:
        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoLapacke)
    matrix._lapacke_dsyevr.cache_clear()
    try:
        assert matrix._lapacke_dsyevr() is None
        fallback = every_k()
    finally:
        matrix._lapacke_dsyevr.cache_clear()
    for h, ours, theirs in zip(inputs, native, fallback):
        full = ours[-1].values
        scale = max(np.abs(full).max(), EPS)
        gaps = _gaps(full, scale)
        for k, (a, b) in enumerate(zip(ours, theirs), 1):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-10 * scale)
            if gaps[k - 1]:
                np.testing.assert_allclose(a.vectors @ a.vectors.T, b.vectors @ b.vectors.T,
                                           rtol=0, atol=1e-10)
            if np.count_nonzero(h - np.diag(np.diag(h))) == 0:
                # unit vectors: the same tied pairs are chosen
                np.testing.assert_allclose(a.vectors, b.vectors, rtol=0, atol=1e-12)
