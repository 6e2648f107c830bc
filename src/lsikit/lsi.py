"""Similarity-driven matrix completion for latent semantic indexing.

A word-pair cosine similarity matrix is built once from the initial
term-document matrix.  Each completion step then raises every entry to
the best similarity-weighted entry in its column, reading only the
previous iteration's matrix (snapshot semantics).  Entries are monotone
non-decreasing and bounded by their column maxima, so iteration reaches
a unique fixpoint.  Convergence is declared at the first step that
leaves the matrix bitwise unchanged: a step reads only its input, so an
unchanged input gives the same output at every later step.  Norm-based
stopping is not used, because it can be fooled by updates too small to
move the Frobenius norm in floating point.

Steps are semi-naive (Bancilhon 1986) where that pays: because max is
monotone and idempotent, an entry can rise in step n+1 only if a
similarity neighbour changed in step n.  A step either scatters just the
entries the previous step changed to their neighbours, one by one, or
runs the full step, the dense per-row update over every word with a
neighbour, whichever its work estimate says is cheaper; both give the
full step's result bit for bit, and the idle step that confirms the
fixpoint costs one copy.

The dense update allocates nothing per target row.  It gathers a row's
similarity neighbours from the input, read in place, into one
preallocated buffer, at most ``_GATHER_ROWS`` at a time, scales them in
place by their similarities, reduces them with max into a preallocated
row and folds that into the output row once.  max is exact, so the bytes
do not depend on the chunk size.  An input that is not C-ordered or
holds a -0.0 is canonicalized once first; no iterate of
:func:`complete` is either.  ``complete`` frees each iterate before it
squares the next one for its norm, so it keeps at most two full-size
arrays beside the step's chunks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .matrix import SparseMatrix, as_dense, frobenius_norm

if TYPE_CHECKING:
    from scipy import sparse as sp

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
    ``conviter`` is the smallest n with A(n) == A(n-1), the fixpoint: a
    step reads only its input, so every later step is idle too.  When
    the iteration cap is hit before an idle step, ``converged`` is False
    and ``conviter`` reports the cap.  ``ps_percent`` is the percentage
    of word pairs with perfect similarity.  ``changed[n - 1]`` counts the
    entries that step n changed, so a converged trace ends in one 0; it
    is empty when no counts were recorded.
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
    from scipy import sparse as sp  # here, so importing lsikit stays cheap

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


# Pushes per ``np.maximum.at`` call, and changed entries indexed at a
# time (whole rows of them), so the scatter's temporaries stay a few
# megabytes however many entries changed.  Step 4 of a Medline-size
# completion (84k changed entries) peaked at 6.3 MiB with every entry
# indexed at once and at 2.9 MiB in blocks of 16384, at the same speed.
# Blocks of 4096 peaked at 2.2 MiB but left the process 1.1 MB larger,
# as glibc kept more small blocks in its heap.
_SCATTER_CHUNK = 1 << 16
_SCATTER_ENTRIES = 1 << 14

# Cost of one scatter push in dense-block candidates.  Measured with
# numpy 2.4 on a 2-core x86-64 Xeon over the steps of a completion: a
# push cost 16-31 ns and a candidate 2.2-2.5 ns on a 1.1k x 1k
# Medline-size matrix, 17-22 ns and 5.2-5.4 ns on a 1.2k x 82 ADI-size
# one.  Values from 3 to 8 pick the faster kernel at every step of both
# with over 10**4 pushes; above 8.5 the fourth ADI-size step takes the
# dense block at twice the scatter's time.
_PUSH_COST = 6

# Fixed cost of one dense-block target row in candidates: its Python
# loop and half a dozen numpy calls took 6-7 us a row, 1.2k-3k
# candidates, on the last steps of ADI-size and Medline-size completions
# (same machine as above).  Without it the seventh ADI-size step (557
# pushes, 1.7k candidates, 420 target rows) took the dense block at 40x
# the scatter's time.  Values from 5 to 7500 pick the faster kernel at
# every step of both; 2000 is the middle of the measured cost.  The
# dense block's target rows are the words with a neighbour.
_ROW_COST = 2000

# Neighbour rows the dense block gathers at a time, so its buffer is
# one (_GATHER_ROWS, width) array whatever a word's degree.
# On a Medline-size block 64 and 128 were fastest; 16 was 1.1-2x slower.
_GATHER_ROWS = 128


def completion_step(current, s: SimilarityMatrix, *, changed=None) -> np.ndarray:
    """One snapshot update: out[i, j] = max(cur[i, j], max_k s[i, k] * cur[k, j]).

    Every update reads the input matrix only, so the result is
    independent of evaluation order; the output is a fresh array that
    dominates the input entrywise.  Zeros in the output are +0.0.

    The boolean mask ``changed`` marks the entries that may push
    something new.  When ``current`` is the output of a step, the result
    is exact whenever the mask covers every entry where ``current``
    differs from that step's input: an unchanged entry pushes nothing
    its target did not already receive.  The scatter pushes only the
    marked entries; the dense block computes the full step, and the mask
    only weighs the choice.  ``changed=None`` marks every nonzero entry,
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
    entries = np.count_nonzero(changed, axis=1)
    pushes = entries * degree
    rows = np.flatnonzero(pushes)
    if rows.size == 0:
        return out
    targets = np.count_nonzero(degree)
    if int(pushes.sum()) * _PUSH_COST <= s.nnz * cur.shape[1] + targets * _ROW_COST:
        _scatter(out, cur, changed, s, rows, entries[rows])
    else:
        _dense_block(out, cur, s)
    return out


def _scatter(out, cur, changed, s, rows, entries):
    """Push each changed entry of ``rows``, which have ``entries`` each,
    to its neighbours: the entries a block of rows at a time, their
    pushes in chunks."""
    ends = np.cumsum(entries)
    lo = 0
    while lo < rows.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, start + _SCATTER_ENTRIES, side="right")), lo + 1)
        _push(out, cur, changed, s, rows[lo:hi])
        lo = hi


def _push(out, cur, changed, s, rows):
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


def _dense_block(out, cur, s):
    """The full step's per-row multiply-max over every word with a neighbour.

    Whole neighbour rows are read from ``cur`` in place, once ``cur`` is
    C-ordered and holds no -0.0, which would give -0.0 candidates.
    """
    if not cur.flags.c_contiguous or np.signbit(cur).any():
        cur = np.add(cur, 0.0, order="C")
    indptr, indices, weights = s.matrix.indptr.tolist(), s.matrix.indices, s.matrix.data[:, None]
    buf = np.empty((_GATHER_ROWS, cur.shape[1]))
    acc = np.empty(cur.shape[1])
    best = np.empty(cur.shape[1])
    for i in np.flatnonzero(np.diff(s.matrix.indptr)).tolist():
        first, hi = indptr[i], indptr[i + 1]
        for lo in range(first, hi, _GATHER_ROWS):
            stop = min(lo + _GATHER_ROWS, hi)
            gathered = buf[:stop - lo]
            # mode="clip" fills the buffer in place; "raise" goes through a copy
            np.take(cur, indices[lo:stop], axis=0, out=gathered, mode="clip")
            gathered *= weights[lo:stop]
            if lo == first:
                np.maximum.reduce(gathered, axis=0, out=acc)
            else:
                np.maximum.reduce(gathered, axis=0, out=best)
                np.maximum(acc, best, out=acc)
        np.maximum(out[i], acc, out=out[i])


def complete(initial, maxiter: int = 100):
    """Iterate :func:`completion_step` to the fixpoint.

    The first step's mask marks every nonzero entry; each later step's
    marks the entries the step before it changed.  Stops at the first
    step that leaves the matrix bitwise unchanged, which is the fixpoint
    because a step reads only its input, or at ``maxiter``.  Returns the
    completed dense matrix, whose zeros are +0.0, and a
    :class:`CompletionTrace`.
    """
    if maxiter < 1:
        raise ValueError("maxiter must be at least 1")
    a = np.add(as_dense(initial), 0.0, order="C")
    if a.size and a.min() < 0:
        raise ValueError("input must be nonnegative")
    sim = word_similarity(initial)  # rejects non-finite input
    ps = perfect_pair_percentage(sim)
    norms = [frobenius_norm(a)]
    counts = []
    changed = None
    for n in range(1, maxiter + 1):
        nxt = completion_step(a, sim, changed=changed)
        changed = nxt != a
        counts.append(int(np.count_nonzero(changed)))
        a = nxt  # frees the previous iterate before the norm's squared copy
        norms.append(frobenius_norm(a))
        if counts[-1] == 0:
            return a, CompletionTrace(tuple(norms), n, True, ps, tuple(counts))
    return a, CompletionTrace(tuple(norms), maxiter, False, ps, tuple(counts))


def perfect_pair_percentage(s: SimilarityMatrix) -> float:
    """Percentage of unordered word pairs whose cosine is (numerically) 1."""
    from scipy import sparse as sp

    total = s.dim * (s.dim - 1) // 2
    if total == 0:
        return 0.0
    upper = sp.triu(s.matrix, k=1)
    perfect = int(np.count_nonzero(upper.data >= PERFECT_SIMILARITY))
    return 100.0 * perfect / total
