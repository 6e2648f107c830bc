"""Affinity-matrix construction and normalization for unipartite,
bipartite, and directed graphs, plus kernel similarity.

Normalization schemes name the clustering objective whose relaxation
they serve: degree-weighted association/cuts (``nassoc``/``ncuts``,
which coincide after the cuts-to-affinity substitution), identity-
weighted ratio variants (``rassoc``/``rcuts``), and a general form with
caller-supplied vertex weights (``gwassoc``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import SparseMatrix, as_dense

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
    """Symmetric nonnegative edge weights plus the normalization scheme.

    ``phi`` supplies the explicit positive vertex-weight diagonal that
    the ``gwassoc`` scheme requires; the packaged schemes derive theirs
    from the weights.
    """

    weights: object  # dense ndarray or SparseMatrix
    scheme: str = "nassoc"
    phi: np.ndarray | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
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
        if self.phi is not None:
            phi = np.asarray(self.phi, dtype=float)
            if phi.shape != (shape[0],):
                raise ValueError("phi must be a vector matching the vertex count")
            object.__setattr__(self, "phi", phi)
        elif self.scheme == "gwassoc":
            raise ValueError("gwassoc scheme requires an explicit phi diagonal")

    @property
    def order(self) -> int:
        w = self.weights
        return w.rows if isinstance(w, SparseMatrix) else as_dense(w).shape[0]


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
    return AffinityGraph(w, "nassoc")


def degree_matrix(g: AffinityGraph) -> np.ndarray:
    """Row sums of the affinity weights, as a vector."""
    return as_dense(g.weights).sum(axis=1)


def _weight_diagonal(g: AffinityGraph, w: np.ndarray) -> np.ndarray:
    if g.scheme == "gwassoc":
        phi = g.phi
    elif g.scheme in ("nassoc", "ncuts"):
        phi = w.sum(axis=1)
    else:
        phi = np.ones(w.shape[0])
    bad = np.flatnonzero(phi <= 0)
    if bad.size:
        raise ValueError(
            f"normalization undefined for isolated/zero-weight vertices {bad.tolist()}"
        )
    return phi


def normalize_affinity(g: AffinityGraph) -> np.ndarray:
    """Weight-normalized affinity phi^(-1/2) W phi^(-1/2).

    Cuts-type schemes first replace the affinity by its association-form
    equivalent: degree-weighted cuts reduce to the weights themselves,
    ratio cuts use I - L = I - D + W.
    """
    w = as_dense(g.weights)
    if g.scheme == "rcuts":
        affinity = np.eye(w.shape[0]) - np.diag(w.sum(axis=1)) + w
    else:
        affinity = w
    phi = _weight_diagonal(g, w)
    inv_sqrt = 1.0 / np.sqrt(phi)
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
    return AffinityGraph(SparseMatrix(m + n, m + n, row, col, data), "nassoc")


def bipartite_normalize(a) -> np.ndarray:
    """Scale rows and columns by their inverse square-root sums.

    The top singular pairs of the result solve the relaxed co-clustering
    problem of the bipartite graph; its largest singular value is 1.
    """
    dense = as_dense(a)
    if dense.size and dense.min() < 0:
        raise ValueError("input must be nonnegative")
    r = dense.sum(axis=1)
    c = dense.sum(axis=0)
    bad_rows = np.flatnonzero(r <= 0)
    bad_cols = np.flatnonzero(c <= 0)
    if bad_rows.size or bad_cols.size:
        raise ValueError(
            f"zero rows {bad_rows.tolist()} / columns {bad_cols.tolist()} "
            "make the normalization undefined"
        )
    return dense / np.sqrt(r)[:, None] / np.sqrt(c)[None, :]


def directed_weights(b, scheme: str = "nassoc", phi: np.ndarray | None = None) -> DirectedWeights:
    """Vertex-weight diagonals for a directed affinity matrix.

    Degree-weighted schemes use column sums (in) and row sums (out);
    ratio schemes use the identity; ``gwassoc`` takes the explicit
    diagonal for both directions.
    """
    dense = as_dense(b)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("directed affinity matrix must be square")
    n = dense.shape[0]
    if scheme in ("nassoc", "ncuts"):
        ind = dense.sum(axis=0)
        outd = dense.sum(axis=1)
    elif scheme in ("rassoc", "rcuts"):
        ind = outd = np.ones(n)
    elif scheme == "gwassoc":
        if phi is None:
            raise ValueError("gwassoc scheme requires an explicit phi diagonal")
        ind = outd = np.asarray(phi, dtype=float)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return DirectedWeights(ind, outd, np.sqrt(ind * outd))


def directed_symmetrize(b, scheme: str = "nassoc", phi: np.ndarray | None = None) -> np.ndarray:
    """Weight-normalized symmetrization of a directed affinity matrix:
    phi_io^(-1/2) (B + B^T) phi_io^(-1/2) with phi_io = sqrt(in * out)."""
    dense = as_dense(b)
    w = directed_weights(dense, scheme, phi)
    bad = np.flatnonzero(w.combined <= 0)
    if bad.size:
        raise ValueError(
            f"vertices {bad.tolist()} have zero in- or out-degree; "
            "normalization undefined"
        )
    # B + B^T is exactly symmetric (addition commutes), and so is the
    # outer scaling, so the result is symmetric bitwise
    sym = dense + dense.T
    inv_sqrt = 1.0 / np.sqrt(w.combined)
    return sym * np.outer(inv_sqrt, inv_sqrt)


def diagonal_shift(h, sigma: float) -> np.ndarray:
    """h + sigma * I: shifts every eigenvalue by sigma, eigenvectors unchanged."""
    dense = as_dense(h)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(float(np.abs(dense).max()) if dense.size else 0.0, 1.0)
    if dense.size and np.abs(dense - dense.T).max() > 1e-10 * scale:
        raise ValueError("matrix must be symmetric")
    return dense + sigma * np.eye(dense.shape[0])
