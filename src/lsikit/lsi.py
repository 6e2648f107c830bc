"""Similarity-driven matrix completion for latent semantic indexing.

A word-pair cosine similarity matrix is built once from the initial
term-document matrix.  Each completion step then raises every entry to
the best similarity-weighted entry in its column, reading only the
previous iteration's matrix (snapshot semantics).  Entries are monotone
non-decreasing and bounded by their column maxima, so iteration reaches
a unique fixpoint; convergence is declared only after the matrix stays
bitwise unchanged for a configurable window of consecutive iterations,
because norm-based stopping can be fooled by updates too small to move
the Frobenius norm in floating point.

Steps are semi-naive (Bancilhon 1986): because max is monotone and
idempotent, an entry can rise in step n+1 only if a similarity
neighbour changed in step n, so each step pushes only the entries the
previous step changed.  It scatters them one by one or runs the dense
per-row update over the changed rows and columns, whichever its work
estimate says is cheaper; both give the full step's result bit for
bit, and an idle confirmation step costs one copy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .matrix import SparseMatrix, as_dense, frobenius_norm

PERFECT_SIMILARITY = 1.0 - 1e-12


@dataclass(frozen=True)
class SimilarityMatrix:
    """Sparse symmetric word-pair cosines in [0, 1], zero diagonal.

    Rows with no nonzero entries have zero similarity to everything and
    are listed in ``zero_rows``.
    """

    dim: int
    matrix: sp.csr_matrix
    zero_rows: tuple = ()

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.dim, self.dim):
            raise ValueError("similarity matrix shape mismatch")
        if (m != m.T).nnz != 0:
            raise ValueError("similarity matrix must be exactly symmetric")
        if m.nnz:
            if m.data.min() < 0 or m.data.max() > 1.0 + 1e-12:
                raise ValueError("similarities must lie in [0, 1]")
        if np.any(m.diagonal() != 0):
            raise ValueError("diagonal must not be stored")

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)


@dataclass(frozen=True)
class CompletionTrace:
    """Per-iteration Frobenius norms plus convergence bookkeeping.

    ``norms[n]`` is the norm after n update steps (index 0 = input).
    ``conviter`` is the first iteration of the final stable run: the
    smallest n with A(n) == A(n-1) and no later change.  When the
    iteration cap is hit before stability, ``converged`` is False and
    ``conviter`` reports the cap.  ``ps_percent`` is the percentage of
    word pairs with perfect similarity.  ``changed[n - 1]`` counts the
    entries that step n changed (0 on idle steps); it is empty when no
    counts were recorded.
    """

    norms: tuple
    conviter: int
    converged: bool
    ps_percent: float
    changed: tuple = ()

    def __post_init__(self):
        if np.any(np.diff(self.norms) < 0):
            raise ValueError("completion norms must be non-decreasing")
        if self.changed and len(self.changed) != len(self.norms) - 1:
            raise ValueError("need one changed-entry count per completion step")


def word_similarity(a) -> SimilarityMatrix:
    """Cosine similarity of every row pair of a nonnegative matrix.

    Pairs with no shared support are exact zeros and are not stored.
    Zero rows are flagged (with a warning) rather than rejected; their
    similarities are defined as zero.
    """
    if isinstance(a, SparseMatrix):
        csr = a.tocsr()
    else:
        csr = sp.csr_matrix(as_dense(a))
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("input must be finite")
    if csr.nnz and csr.data.min() < 0:
        raise ValueError("input must be nonnegative")
    norms = np.sqrt(np.asarray(csr.multiply(csr).sum(axis=1)).ravel())
    zero_rows = tuple(int(i) for i in np.flatnonzero(norms == 0))
    if zero_rows:
        warnings.warn(
            f"{len(zero_rows)} zero rows have zero similarity to all rows",
            stacklevel=2,
        )
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    unit = sp.diags(inv) @ csr
    gram = (unit @ unit.T).tocsr()
    upper = sp.triu(gram, k=1).tocsr()
    upper.data = np.clip(upper.data, 0.0, 1.0)
    upper.eliminate_zeros()
    full = (upper + upper.T).tocsr()
    full.sort_indices()
    return SimilarityMatrix(csr.shape[0], full, zero_rows)


# Pushes per ``np.maximum.at`` call, so the scatter's temporaries stay
# a few megabytes however many entries changed.
_SCATTER_CHUNK = 1 << 16

# Cost of one scatter push in dense-block candidates.  Measured with
# numpy 2.4 on a 2-core x86-64 Xeon: a push cost 34-87 ns and a
# candidate 5-6 ns on a 1.1k x 1k Medline-size matrix, 18-30 ns and
# 6-7 ns on a 1.2k x 82 ADI-size one.
_PUSH_COST = 6


def completion_step(current, s: SimilarityMatrix, *, changed=None) -> np.ndarray:
    """One snapshot update: out[i, j] = max(cur[i, j], max_k s[i, k] * cur[k, j]).

    Every update reads the input matrix only, so the result is
    independent of evaluation order; the output is a fresh array that
    dominates the input entrywise.  Zeros in the output are +0.0.

    Only the entries marked in the boolean mask ``changed`` are pushed
    to their similarity neighbours.  That is exact when ``current`` is
    the output of a step and ``changed`` marks where it differs from
    that step's input: an unchanged entry pushes nothing its target did
    not already receive.  ``changed=None`` pushes every nonzero entry,
    which is exact for any nonnegative input.
    """
    cur = as_dense(current)
    if cur.shape[0] != s.dim:
        raise ValueError(
            f"matrix has {cur.shape[0]} rows but similarity is over {s.dim} words"
        )
    if changed is None:
        changed = cur > 0
    else:
        changed = np.asarray(changed, dtype=bool)
        if changed.shape != cur.shape:
            raise ValueError(f"changed mask has shape {changed.shape}, matrix {cur.shape}")
    out = np.add(cur, 0.0, order="C")
    degree = np.diff(s.matrix.indptr)
    pushes = np.count_nonzero(changed, axis=1) * degree
    rows = np.flatnonzero(pushes)
    if rows.size == 0:
        return out
    cols = np.flatnonzero(changed[rows].any(axis=0))
    if int(pushes.sum()) * _PUSH_COST <= int(degree[rows].sum()) * cols.size:
        _scatter(out, cur, changed, s, rows)
    else:
        _dense_block(out, cur, s, rows, cols)
    return out


def _scatter(out, cur, changed, s, rows):
    """Push each changed entry of ``rows`` to its neighbours, in chunks."""
    indptr, indices, data = s.matrix.indptr, s.matrix.indices, s.matrix.data
    picked, j = np.nonzero(changed[rows])
    k = rows[picked]
    v = cur[k, j]
    keep = v > 0  # zeros push nothing, and must not write a -0.0
    k, j, v = k[keep], j[keep], v[keep]
    deg = indptr[k + 1] - indptr[k]
    end_of = np.cumsum(deg)
    flat = out.reshape(-1)
    n = out.shape[1]
    lo = done = 0
    while lo < k.size:
        hi = max(int(np.searchsorted(end_of, done + _SCATTER_CHUNK, side="right")), lo + 1)
        d = deg[lo:hi]
        # position in ``indices`` of every push: each entry's row range
        pos = np.repeat(indptr[k[lo:hi]] - (end_of[lo:hi] - d - done), d)
        pos += np.arange(int(end_of[hi - 1]) - done)
        # intp: int32 indices times n would wrap past 2**31 cells
        np.maximum.at(flat, indices[pos].astype(np.intp) * n + np.repeat(j[lo:hi], d),
                      data[pos] * np.repeat(v[lo:hi], d))
        done = int(end_of[hi - 1])
        lo = hi


def _dense_block(out, cur, s, rows, cols):
    """The per-row multiply-max, reading only ``rows`` x ``cols`` of ``cur``."""
    into = s.matrix[:, rows]
    block = cur[np.ix_(rows, cols)]
    block += 0.0  # a -0.0 entry would give -0.0 candidates
    indptr, indices, data = into.indptr, into.indices, into.data
    for i in np.flatnonzero(np.diff(indptr)):
        lo, hi = indptr[i], indptr[i + 1]
        candidates = data[lo:hi, None] * block[indices[lo:hi]]
        out[i, cols] = np.maximum(out[i, cols], candidates.max(axis=0))


def complete(initial, maxiter: int = 100, stable_window: int = 3):
    """Iterate :func:`completion_step` to the fixpoint.

    The first step pushes every nonzero entry; each later step pushes
    only the entries the step before it changed.  Stops once the matrix
    is bitwise unchanged for ``stable_window`` consecutive iterations,
    or at ``maxiter``.  Returns the completed dense matrix, whose zeros
    are +0.0, and a :class:`CompletionTrace`.
    """
    if maxiter < 1:
        raise ValueError("maxiter must be at least 1")
    if stable_window < 1:
        raise ValueError("stable_window must be at least 1")
    a = np.add(as_dense(initial), 0.0, order="C")
    if a.size and a.min() < 0:
        raise ValueError("input must be nonnegative")
    sim = word_similarity(initial)  # rejects non-finite input
    ps = perfect_pair_percentage(sim)
    norms = [frobenius_norm(a)]
    counts = []
    changed = None
    stable = 0
    first_stable = None
    converged = False
    for n in range(1, maxiter + 1):
        nxt = completion_step(a, sim, changed=changed)
        norms.append(frobenius_norm(nxt))
        changed = nxt != a
        counts.append(int(np.count_nonzero(changed)))
        if counts[-1] == 0:
            if stable == 0:
                first_stable = n
            stable += 1
            if stable >= stable_window:
                converged = True
                break
        else:
            stable = 0
            first_stable = None
            a = nxt
    conviter = first_stable if first_stable is not None else maxiter
    return a, CompletionTrace(tuple(norms), conviter, converged, ps, tuple(counts))


def perfect_pair_percentage(s: SimilarityMatrix) -> float:
    """Percentage of unordered word pairs whose cosine is (numerically) 1."""
    total = s.dim * (s.dim - 1) // 2
    if total == 0:
        return 0.0
    upper = sp.triu(s.matrix, k=1)
    perfect = int(np.count_nonzero(upper.data >= PERFECT_SIMILARITY))
    return 100.0 * perfect / total
