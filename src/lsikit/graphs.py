"""Kernel affinities and their degree normalization D^(-1/2) W D^(-1/2):
the relaxed normalized-association (``nassoc``) objective whose leading
eigenvectors ``cluster.spectral_cluster`` takes.  Also the row/column
normalization of a rectangular matrix.  ``_inv_sqrt`` is the one function
that rejects a zero or negative weight, naming every vertex that has one.
"""

from dataclasses import dataclass

import numpy as np

from .matrix import as_dense

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Pairwise-similarity kernel and its parameters.

    ``polynomial``: (a_i . a_j + c)^d with integer d >= 1.
    ``gaussian``:   exp(-|a_i - a_j|^2 / (2 alpha^2)) with alpha > 0.
    ``sigmoid``:    tanh(c (a_i . a_j) + theta).
    """

    kind: str
    c: float = 0.0
    d: int = 1
    alpha: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "gaussian", "sigmoid"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.alpha > 0:
            raise ValueError("gaussian kernel requires alpha > 0")
        if self.kind == "polynomial":
            if int(self.d) != self.d or self.d < 1:
                raise ValueError("polynomial kernel requires integer degree d >= 1")


@dataclass(frozen=True)
class AffinityGraph:
    """Square, finite, symmetric, nonnegative dense edge weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_dense(self.weights)
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"affinity matrix must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("affinity matrix has non-finite weights")
        if w.size:
            scale = max(float(np.abs(w).max()), 1.0)
            if float(np.abs(w - w.T).max()) > _SYM_TOL * scale:
                raise ValueError("affinity matrix is not symmetric")
            if w.min() < 0:
                raise ValueError("affinity matrix must be nonnegative")


def kernel_affinity(points, spec: KernelSpec) -> AffinityGraph:
    """Pairwise kernel values between the columns of ``points``.

    The Gram matrix is symmetrized before use so the result is exactly
    symmetric; a gaussian kernel has unit diagonal by construction.
    Kernels that produce negative values (possible for polynomial and
    sigmoid) are rejected, since affinities must be nonnegative.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array with columns as points")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if bad.size:
        raise ValueError(f"non-finite coordinates in points {bad.tolist()}")
    gram = x.T @ x
    gram = (gram + gram.T) / 2.0
    if spec.kind == "polynomial":
        w = (gram + spec.c) ** int(spec.d)
    elif spec.kind == "sigmoid":
        w = np.tanh(spec.c * gram + spec.theta)
    else:
        sq = np.diagonal(gram)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        w = np.exp(-d2 / (2.0 * spec.alpha**2))
    if w.size and w.min() < 0:
        raise ValueError(f"{spec.kind} kernel produced negative affinities; adjust parameters")
    return AffinityGraph(w)


def _inv_sqrt(phi: np.ndarray, what: str) -> np.ndarray:
    """phi^(-1/2); a zero or negative weight leaves the normalization
    undefined, and every vertex that has one is named."""
    bad = np.flatnonzero(phi <= 0)
    if bad.size:
        raise ValueError(f"normalization undefined for {what} {bad.tolist()}")
    return 1.0 / np.sqrt(phi)


def normalize_affinity(g: AffinityGraph) -> np.ndarray:
    """Degree-normalized affinity D^(-1/2) W D^(-1/2), D the row sums of W."""
    w = as_dense(g.weights)
    d = _inv_sqrt(w.sum(axis=1), "isolated/zero-weight vertices")
    # outer-product scaling keeps the result exactly symmetric
    return w * np.outer(d, d)


def bipartite_normalize(a) -> np.ndarray:
    """Scale rows and columns by their inverse square-root sums.

    The top singular pairs of the result solve the relaxed co-clustering
    problem of the bipartite graph; its largest singular value is 1.
    """
    dense = as_dense(a)
    if dense.size and dense.min() < 0:
        raise ValueError("input must be nonnegative")
    rows = _inv_sqrt(dense.sum(axis=1), "zero-sum rows")
    cols = _inv_sqrt(dense.sum(axis=0), "zero-sum columns")
    return dense * np.outer(rows, cols)
