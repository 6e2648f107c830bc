"""Dense/sparse matrix values and the numerical kernels used everywhere else.

Dense matrices are plain float64 ``numpy.ndarray`` objects in row-major
order.  Sparse matrices are immutable coordinate-triplet values
(:class:`SparseMatrix`).  Eigenpairs and singular triplets come from
one LAPACK call each (``numpy.linalg.eigh`` and ``numpy.linalg.svd``),
followed by a stable sort and a fixed sign convention, so results are
deterministic.

Parallel BLAS and LAPACK sum in an order that depends on the thread
count, so their last bits do too.  :func:`blas_on_calling_thread` runs
numpy's OpenBLAS on the calling thread; both LAPACK calls hold it, so
their factors are the same bytes at any BLAS thread count.  With another
BLAS (MKL, Accelerate, a system library) it does nothing.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps

_NMF_GUARD = 1e-9
_NMF_TINY = np.finfo(float).tiny  # smallest normal float64
_ORTHO_TOL = 1e-8
KMEANS_RESTARTS = 10  # k-means++ seedings per kmeans call


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix in coordinate form.

    Triplets hold only nonzero, finite values; duplicate (row, col)
    pairs are rejected.  Arrays are locked after construction so values
    can be shared freely across threads.
    """

    rows: int
    cols: int
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        row = np.ascontiguousarray(self.row, dtype=np.int64)
        col = np.ascontiguousarray(self.col, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if not (row.shape == col.shape == data.shape) or row.ndim != 1:
            raise ValueError("row, col and data must be 1-D arrays of equal length")
        if row.size:
            if row.min() < 0 or row.max() >= self.rows:
                raise ValueError("row index out of range")
            if col.min() < 0 or col.max() >= self.cols:
                raise ValueError("column index out of range")
            if not np.all(np.isfinite(data)):
                raise ValueError("matrix entries must be finite")
            if np.any(data == 0.0):
                raise ValueError("explicit zeros are not stored; drop them first")
            # row-major triplets, as from_dense gives, pass in O(n);
            # any other order is sorted once
            flat = row * self.cols + col
            if np.any(flat[1:] <= flat[:-1]):
                flat = np.sort(flat)
                if np.any(flat[1:] == flat[:-1]):
                    raise ValueError("duplicate (row, col) triplets")
        for arr, name in ((row, "row"), (col, "col"), (data, "data")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        r, c = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], r, c, a[r, c])

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row, self.col] = self.data
        return out

    def tocsr(self):
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data, (self.row, self.col)), shape=(self.rows, self.cols)
        )


def as_dense(m) -> np.ndarray:
    """Return a float64 2-D array view/copy of a dense or sparse matrix."""
    if isinstance(m, SparseMatrix):
        return m.toarray()
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return a


def _as_sparse(m) -> SparseMatrix:
    return m if isinstance(m, SparseMatrix) else SparseMatrix.from_dense(m)


@dataclass(frozen=True)
class SvdFactors:
    """Truncated singular triplets: ``left`` (MxK), ``values`` (K), ``right`` (NxK)."""

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.asarray(self.left, dtype=float)
        values = np.asarray(self.values, dtype=float)
        right = np.asarray(self.right, dtype=float)
        k = values.shape[0]
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] != k or right.shape[1] != k:
            raise ValueError("factor shapes inconsistent with the number of values")
        if np.any(values < 0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(values) > 0):
            raise ValueError("singular values must be non-increasing")
        for name, f in (("left", left), ("right", right)):
            dev = np.abs(f.T @ f - np.eye(k)).max() if k else 0.0
            if dev > _ORTHO_TOL:
                raise ValueError(f"{name} factor is not column-orthonormal (max deviation {dev:.2e})")
        for name, arr in (("left", left), ("right", right), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class EigenPairs:
    """Leading eigenvalues (non-increasing) with orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        k = values.shape[0]
        if vectors.ndim != 2 or vectors.shape[1] != k:
            raise ValueError("vector count does not match value count")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        dev = np.abs(vectors.T @ vectors - np.eye(k)).max() if k else 0.0
        if dev > _ORTHO_TOL:
            raise ValueError(f"eigenvectors not orthonormal (max deviation {dev:.2e})")
        for name, arr in (("values", values), ("vectors", vectors)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# BLAS threads


@functools.cache
def _openblas_threads_setter():
    """numpy's ``openblas_set_num_threads_local``, or None when numpy's
    BLAS is not OpenBLAS.  Looked up on first use, not at import."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        # dlsym on the extension also searches the libraries it links
        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# blocks of blas_on_calling_thread open in this process; a forked child
# inherits the count together with OpenBLAS's one-thread setting
_blas_blocks = 0


@contextmanager
def blas_on_calling_thread():
    """Run numpy's OpenBLAS on one thread, the caller's, inside the block.

    A parallel reduction sums in an order that depends on the thread
    count, so a block's GEMMs, GEMVs and LAPACK calls give the same bytes
    at any ``OPENBLAS_NUM_THREADS``.  The count in force before is
    restored on exit; blocks nest.  The setting is process-wide in
    practice (another Python thread's BLAS calls see it too), so hold it
    only around computation.  Without OpenBLAS this does nothing.

    Only the outermost block calls OpenBLAS; a nested block, also one
    entered in a process forked inside a block, finds one thread already
    set.  OpenBLAS stops its thread pool before a fork and starts it again
    at its next thread-count call, and a new pool thread spins for about
    0.1 s before it sleeps, on a CPU that both processes need.
    """
    global _blas_blocks
    setter = _openblas_threads_setter()
    if setter is None:
        yield
        return
    previous = setter(1) if _blas_blocks == 0 else None
    _blas_blocks += 1
    try:
        yield
    finally:
        _blas_blocks -= 1
        if previous is not None:
            setter(previous)


# ---------------------------------------------------------------------------
# norms


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    if isinstance(m, SparseMatrix):
        return float(np.sqrt(np.sum(m.data * m.data)))
    return float(np.sqrt(np.sum(np.square(np.asarray(m, dtype=float)))))


# ---------------------------------------------------------------------------
# sign convention


def _sign_fix(vectors):
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties in magnitude resolve to the lowest row index (argmax convention).
    Returns the flipped copy and the applied signs.
    """
    v = np.asarray(vectors, dtype=float)
    signs = np.ones(v.shape[1])
    if v.shape[0]:
        signs[v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0] = -1.0
    return v * signs, signs


# ---------------------------------------------------------------------------
# public operations


def require_symmetric(h) -> np.ndarray:
    """``h`` as a dense array; ``ValueError`` naming the worst entry unless
    it is square and max|a - a^T| <= 1e-10 * max(max|a|, 1)."""
    a = as_dense(h)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    if a.size:
        asym = np.abs(a - a.T)
        worst = float(asym.max())
        if worst > 1e-10 * max(float(np.abs(a).max()), 1.0):
            i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
            raise ValueError(
                f"matrix is not symmetric: |a[{i},{j}] - a[{j},{i}]| = {worst:.3e}"
            )
    return a


def symmetric_eigen_topk(h, k: int) -> EigenPairs:
    """Top-k algebraically largest eigenpairs of a symmetric matrix.

    Eigenvalues are sorted non-increasing by a stable sort, so ties keep
    LAPACK's order (ascending original position for diagonal input);
    each eigenvector's largest-magnitude component is made positive, so
    the output is fully deterministic.

    Raises ``ValueError`` for non-square or asymmetric input (the
    report includes the worst offending entry) and for k out of range.
    """
    a = require_symmetric(h)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    with blas_on_calling_thread():
        values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    values = values[order][:k]
    vectors, _ = _sign_fix(vectors[:, order][:, :k])
    return EigenPairs(values, vectors)


def truncated_svd(a, k: int) -> SvdFactors:
    """Leading-k singular triplets of a dense or sparse real matrix.

    Signs follow the convention of :func:`symmetric_eigen_topk` applied
    to the right singular vectors, with the left vectors flipped in
    step.  Singular values at or below max(M, N) * eps * sigma_max are
    set to exactly zero; their singular vectors stay LAPACK's orthonormal
    ones.
    """
    dense = as_dense(a)
    m, n = dense.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range [1, {min(m, n)}]")
    # LAPACK gets the wide orientation, whose output was thread-invariant even
    # before the one-thread switch; the factors' bytes depend on it
    transposed = m > n
    with blas_on_calling_thread():
        u, sig, vt = np.linalg.svd(dense.T if transposed else dense, full_matrices=False)
    u, sig, v = u[:, :k], sig[:k], vt[:k].T
    if transposed:
        u, v = v, u
    sig[sig <= max(m, n) * EPS * sig[0]] = 0.0
    v, signs = _sign_fix(v)
    u = u * signs
    return SvdFactors(u, sig, v)


def rank_k_reconstruct(f: SvdFactors, k: int | None = None) -> np.ndarray:
    """Product of the leading ``k`` triplets of ``f`` (all of them when
    ``k`` is None), the best rank-k approximation A_k = U_k S_k V_k^T."""
    if k is not None and not 1 <= k <= f.rank:
        raise ValueError(f"k={k} out of range [1, {f.rank}]")
    return (f.left[:, :k] * f.values[:k]) @ f.right[:, :k].T


def column_normalize(a) -> SparseMatrix:
    """Scale each column j of a dense or sparse matrix by the inverse
    square root of column j dotted with the vector of row sums (the j-th
    row sum of the Gram matrix A^T A).  The result is sparse: a
    :class:`SparseMatrix` input is never densified."""
    s = _as_sparse(a)
    csr = s.tocsr()
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    d = csr.T @ row_sums
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise ValueError(f"zero columns {bad.tolist()} cannot be normalized")
    return SparseMatrix(s.rows, s.cols, s.row, s.col, s.data / np.sqrt(d[s.col]))


def nmf_factorize(a, k: int, iterations: int, seed: int):
    """Nonnegative factorization A ~ B C by multiplicative updates.

    ``a`` is a dense array or a :class:`SparseMatrix`; either way the two
    products with A run on its CSR form, so a sparse input is never
    densified and a dense one gives the same factors as its sparse twin.
    Factor entries below the smallest normal float64 are set to 0.
    Both factors stay entrywise nonnegative and the Frobenius
    reconstruction error is non-increasing across iterations.  A fixed
    seed gives bitwise-identical factors at a fixed BLAS thread count,
    and at any count inside :func:`blas_on_calling_thread`, as in the CLI.

    Returns ``(basis, coefficients)`` of shapes (M, k) and (k, N).
    """
    s = _as_sparse(a)
    if s.nnz and s.data.min() < 0:
        raise ValueError("input must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    csr = s.tocsr()
    csr_t = csr.T.tocsr()
    rng = np.random.default_rng(seed)
    # uniform in (0, 1]: multiplicative updates must never start at zero
    b, c = 1.0 - rng.random((s.rows, k)), 1.0 - rng.random((k, s.cols))
    for _ in range(iterations):
        # A enters only through B^T A = (A^T B)^T and A C^T, both taken on CSR.
        # Factor entries decay towards 0 and underflow; those below the smallest
        # normal float are set to 0 at once, because arithmetic on subnormals is
        # several times slower and adds nothing to a sum of normal-range terms.
        c *= (csr_t @ b).T / (b.T @ b @ c + _NMF_GUARD)
        c *= c >= _NMF_TINY
        b *= (csr @ c.T) / (b @ (c @ c.T) + _NMF_GUARD)
        b *= b >= _NMF_TINY
    return b, c


# ---------------------------------------------------------------------------
# k-means


def _squared_distances(x, centers):
    # |x - c|^2 via expansion; clip tiny negatives from cancellation
    d2 = (
        np.einsum("ij,ij->i", x, x)[:, None]
        - 2.0 * (x @ centers.T)
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(x, k, rng):
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.einsum("ij,ij->i", x - x[chosen[0]], x - x[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # remaining mass is zero (duplicate points): take the lowest
            # index not yet chosen, deterministically
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            nxt = min(nxt, n - 1)
            if d2[nxt] == 0.0:
                nxt = int(np.argmax(d2))
        chosen.append(nxt)
        step = np.einsum("ij,ij->i", x - x[nxt], x - x[nxt])
        d2 = np.minimum(d2, step)
    return x[chosen].copy()


def _lloyd(x, centers, max_iter=300):
    """One k-means run.  Returns (labels, inertia, per-iteration inertia)."""
    n, k = x.shape[0], centers.shape[0]
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = _squared_distances(x, centers)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            # move the point farthest from its centroid, never emptying
            # another cluster
            own = d2[np.arange(n), new_labels]
            eligible = counts[new_labels] > 1
            if not np.any(eligible):
                break
            far = int(np.argmax(np.where(eligible, own, -np.inf)))
            counts[new_labels[far]] -= 1
            new_labels[far] = empty
            counts[empty] = 1
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros((k, x.shape[1]))
        np.add.at(sums, labels, x)
        counts = np.maximum(np.bincount(labels, minlength=k), 1)
        centers = sums / counts[:, None]
    inertia = float(
        _squared_distances(x, centers)[np.arange(n), labels].sum()
    )
    return labels, inertia, history


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Best-of-``KMEANS_RESTARTS`` k-means labels, k-means++ seeded,
    deterministic.

    Points are the rows of ``points``.  The run with the lowest
    within-cluster sum of squared distances wins; ties keep the
    earliest restart.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array with rows as points")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(x, k, rng)
        labels, inertia, _ = _lloyd(x, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels.astype(np.int64)
