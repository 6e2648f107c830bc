"""Affinity-matrix construction and normalization for unipartite,
bipartite, and directed graphs, plus kernel similarity.

Normalization schemes name the clustering objective whose relaxation
they serve: degree-weighted association/cuts (``nassoc``/``ncuts``,
which coincide after the cuts-to-affinity substitution), identity-
weighted ratio variants (``rassoc``/``rcuts``), and a general form with
caller-supplied vertex weights (``gwassoc``).  A scheme is an argument
of the normalization, not a property of the graph.  ``directed_weights``
is the one function that checks a scheme name and phi and maps a scheme
to its vertex weights, for symmetric and directed graphs alike, and
``_inv_sqrt`` the one that rejects a zero or negative weight.  Degrees
of a sparse graph are summed from its triplets, without densifying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import SparseMatrix, as_dense, require_symmetric

SCHEMES = ("gwassoc", "nassoc", "ncuts", "rassoc", "rcuts")
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
    """Square, symmetric, nonnegative edge weights, dense or sparse."""

    weights: object  # dense ndarray or SparseMatrix

    def __post_init__(self):
        w = self.weights
        if isinstance(w, SparseMatrix):
            # checked on the triplets: densifying a bipartite embedding
            # would build an (M+N)^2 buffer
            shape, values = (w.rows, w.cols), w.data
        else:
            w = as_dense(w)
            shape, values = w.shape, w
        if shape[0] != shape[1]:
            raise ValueError(f"affinity matrix must be square, got {shape}")
        if values.size:
            scale = max(float(np.abs(values).max()), 1.0)
            if _asymmetry(w) > _SYM_TOL * scale:
                raise ValueError("affinity matrix is not symmetric")
            if values.min() < 0:
                raise ValueError("affinity matrix must be nonnegative")


def _asymmetry(w) -> float:
    """max |w - w^T| of a square dense array or :class:`SparseMatrix`."""
    if isinstance(w, SparseMatrix):
        csr = w.tocsr()
        return float(abs(csr - csr.T).max())
    return float(np.abs(w - w.T).max())


@dataclass(frozen=True)
class DirectedWeights:
    """In-degree, out-degree and combined vertex-weight diagonals."""

    in_degrees: np.ndarray
    out_degrees: np.ndarray
    combined: np.ndarray

    def __post_init__(self):
        for arr in (self.in_degrees, self.out_degrees, self.combined):
            if np.any(np.asarray(arr) < 0):
                raise ValueError("degree weights must be nonnegative")
        expected = np.sqrt(np.asarray(self.in_degrees) * np.asarray(self.out_degrees))
        if not np.allclose(self.combined, expected, rtol=0, atol=1e-12):
            raise ValueError("combined weights must be sqrt(in * out) entrywise")


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


def degree_matrix(g: AffinityGraph) -> np.ndarray:
    """Row sums of the affinity weights, as a vector; a sparse graph's
    triplets are summed without building its dense matrix."""
    w = g.weights
    if isinstance(w, SparseMatrix):
        return np.bincount(w.row, weights=w.data, minlength=w.rows)
    return as_dense(w).sum(axis=1)


def _inv_sqrt(phi: np.ndarray, what: str) -> np.ndarray:
    """phi^(-1/2); a zero or negative weight leaves the normalization
    undefined, and every vertex that has one is named."""
    bad = np.flatnonzero(phi <= 0)
    if bad.size:
        raise ValueError(f"normalization undefined for {what} {bad.tolist()}")
    return 1.0 / np.sqrt(phi)


def normalize_affinity(g: AffinityGraph, scheme: str = "nassoc",
                       phi: np.ndarray | None = None) -> np.ndarray:
    """Weight-normalized affinity phi^(-1/2) W phi^(-1/2) under ``scheme``.

    ``phi`` is the explicit positive vertex-weight diagonal that
    ``gwassoc`` requires; the other schemes derive theirs from the
    weights.  Cuts-type schemes first replace the affinity by its
    association-form equivalent: degree-weighted cuts reduce to the
    weights themselves, ratio cuts use I - L = I - D + W.
    """
    w = as_dense(g.weights)
    if scheme == "rcuts":
        affinity = np.eye(w.shape[0]) - np.diag(w.sum(axis=1)) + w
    else:
        affinity = w
    # w is symmetric, so its out-degrees are its degrees
    phi = directed_weights(w, scheme, phi).out_degrees
    inv_sqrt = _inv_sqrt(phi, "isolated/zero-weight vertices")
    # outer-product scaling keeps the result exactly symmetric
    return affinity * np.outer(inv_sqrt, inv_sqrt)


def bipartite_embed(a) -> AffinityGraph:
    """Square symmetric embedding [[0, A], [A^T, 0]] of a rectangular matrix."""
    if not isinstance(a, SparseMatrix):
        a = SparseMatrix.from_dense(as_dense(a))
    if a.nnz and a.data.min() < 0:
        raise ValueError("input must be nonnegative")
    m, n = a.rows, a.cols
    row = np.concatenate([a.row, a.col + m])
    col = np.concatenate([a.col + m, a.row])
    data = np.concatenate([a.data, a.data])
    return AffinityGraph(SparseMatrix(m + n, m + n, row, col, data))


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


def directed_weights(b, scheme: str = "nassoc", phi: np.ndarray | None = None) -> DirectedWeights:
    """Vertex-weight diagonals for a directed affinity matrix.

    Degree-weighted schemes use column sums (in) and row sums (out);
    ratio schemes use the identity; ``gwassoc`` takes the explicit
    diagonal for both directions.  Every path that normalizes by a
    scheme checks its name and phi here.
    """
    dense = as_dense(b)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("directed affinity matrix must be square")
    n = dense.shape[0]
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if phi is not None:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (n,):
            raise ValueError("phi must be a vector matching the vertex count")
    if scheme in ("nassoc", "ncuts"):
        ind = dense.sum(axis=0)
        outd = dense.sum(axis=1)
    elif scheme in ("rassoc", "rcuts"):
        ind = outd = np.ones(n)
    elif phi is None:
        raise ValueError("gwassoc scheme requires an explicit phi diagonal")
    else:
        ind = outd = phi
    return DirectedWeights(ind, outd, np.sqrt(ind * outd))


def directed_symmetrize(b, scheme: str = "nassoc", phi: np.ndarray | None = None) -> np.ndarray:
    """Weight-normalized symmetrization of a directed affinity matrix:
    phi_io^(-1/2) (B + B^T) phi_io^(-1/2) with phi_io = sqrt(in * out)."""
    dense = as_dense(b)
    w = directed_weights(dense, scheme, phi)
    inv_sqrt = _inv_sqrt(w.combined, "vertices with zero in- or out-degree")
    # B + B^T is exactly symmetric (addition commutes), and so is the
    # outer scaling, so the result is symmetric bitwise
    return (dense + dense.T) * np.outer(inv_sqrt, inv_sqrt)


def diagonal_shift(h, sigma: float) -> np.ndarray:
    """h + sigma * I: shifts every eigenvalue by sigma, eigenvectors unchanged."""
    dense = require_symmetric(h)
    return dense + sigma * np.eye(dense.shape[0])
