"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's own code paths: plain loops,
LAPACK via numpy, direct evaluation of the unrolled propagation
chains, cyclic Jacobi solvers independent of the LAPACK the library
calls, the full per-row completion step and its fixpoint loop, a
label-setting completion closure, per-element Matrix Market array
writers and reader, per-query retrieval evaluation, the dense
multiplicative-update NMF loop, the per-column sign convention loop,
and the dense bipartite block embedding.  The NMF error trace is the
exception: it reruns the library's factorization, one more update each
time."""

import heapq
import warnings
from decimal import Decimal

import numpy as np

from lsikit.lsi import CompletionTrace, perfect_pair_percentage, word_similarity
from lsikit.matrix import as_dense, frobenius_norm, nmf_factorize


def cosine_rows_oracle(a):
    m = a.shape[0]
    s = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            np_, nq_ = np.linalg.norm(a[p]), np.linalg.norm(a[q])
            if np_ > 0 and nq_ > 0:
                s[p, q] = float(a[p] @ a[q]) / (np_ * nq_)
    return s


def chain_oracle(a0, iterations):
    """Best product of similarities along any consecutive-distinct chain
    of length at most ``iterations``, times the initial entry at the
    chain's end; evaluated per cell by depth-first enumeration."""
    s = cosine_rows_oracle(a0)
    m, n = a0.shape
    out = np.zeros_like(a0)
    for j in range(n):
        col = a0[:, j]
        for i in range(m):
            best = col[i]

            def walk(node, prod, depth):
                nonlocal best
                if depth == 0:
                    return
                for k in range(m):
                    if k != node and s[node, k] > 0:
                        p = prod * s[node, k]
                        best = max(best, p * col[k])
                        walk(k, p, depth - 1)

            walk(i, 1.0, iterations)
            out[i, j] = best
    return out


def random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def _jacobi_rotation(app, aqq, apq):
    # cosine and sine of the smaller angle that annihilates apq; an
    # infinite theta (negligible apq) gives the identity rotation
    with np.errstate(over="ignore"):
        theta = (aqq - app) / (2.0 * apq)
        t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + np.hypot(theta, 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


def jacobi_eigh_oracle(h, max_sweeps=60):
    """Eigenvalues (non-increasing) and eigenvectors of a symmetric matrix
    by cyclic two-sided Jacobi rotations, one (p, q) pair at a time."""
    a = np.array(h, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= n * np.finfo(float).eps * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                c, s = _jacobi_rotation(a[p, p], a[q, q], a[p, q])
                for m in (a, v):
                    mp, mq = m[:, p].copy(), m[:, q].copy()
                    m[:, p] = c * mp - s * mq
                    m[:, q] = s * mp + c * mq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = a[q, p] = 0.0
    values = np.diagonal(a).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], v[:, order]


def jacobi_svd_oracle(a, max_sweeps=60):
    """Singular values (non-increasing) with left and right vectors by
    one-sided Jacobi rotations of the columns, one (p, q) pair at a time.
    Vectors of the longer side that belong to zero singular values come
    back as zero columns."""
    w = np.array(a, dtype=float)
    transposed = w.shape[0] < w.shape[1]
    if transposed:
        w = w.T
    n = w.shape[1]
    v = np.eye(n)
    eps = np.finfo(float).eps
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app, aqq, apq = w[:, p] @ w[:, p], w[:, q] @ w[:, q], w[:, p] @ w[:, q]
                if abs(apq) <= eps * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                c, s = _jacobi_rotation(app, aqq, apq)
                for m in (w, v):
                    mp, mq = m[:, p].copy(), m[:, q].copy()
                    m[:, p] = c * mp - s * mq
                    m[:, q] = s * mp + c * mq
        if not rotated:
            break
    values = np.array([np.linalg.norm(w[:, j]) for j in range(n)])
    order = np.argsort(-values, kind="stable")
    values, w, v = values[order], w[:, order], v[:, order]
    u = np.zeros_like(w)
    for j in range(n):
        if values[j] > 0:
            u[:, j] = w[:, j] / values[j]
    return (values, v, u) if transposed else (values, u, v)


def completion_step_oracle(current, s):
    """Full snapshot completion step: for every row, the similarity-
    weighted maximum over all stored neighbours."""
    cur = as_dense(current)
    out = cur.copy()
    indptr, indices, data = s.matrix.indptr, s.matrix.indices, s.matrix.data
    for i in range(s.dim):
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        candidates = data[lo:hi, None] * cur[indices[lo:hi], :]
        np.maximum(out[i], candidates.max(axis=0), out=out[i])
    return out


def complete_oracle(initial, maxiter=100, stable_window=3):
    """Fixpoint loop of full steps with the stability window; records
    ``count_nonzero(next != cur)`` for every step."""
    a = as_dense(initial).copy()
    sim = word_similarity(initial)
    norms = [frobenius_norm(a)]
    counts = []
    stable = 0
    first_stable = None
    converged = False
    for n in range(1, maxiter + 1):
        nxt = completion_step_oracle(a, sim)
        norms.append(frobenius_norm(nxt))
        counts.append(int(np.count_nonzero(nxt != a)))
        if np.array_equal(nxt, a):
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
    trace = CompletionTrace(tuple(norms), conviter, converged,
                            perfect_pair_percentage(sim), tuple(counts))
    return a, trace


def closure_oracle(initial, s):
    """Completion fixpoint by label setting, one column at a time
    (Knuth, "A generalization of Dijkstra's algorithm", IPL 6(1), 1977).

    The largest unsettled entry of a column is settled, then offers
    s[i, k] * x[k] to each unsettled neighbour i.  For s in [0, 1],
    fl(s * x) is monotone in x and never exceeds x, so a settled entry
    is final, and each entry ends as the best similarity path product
    evaluated right to left, bit for bit.  Shares no step or stopping
    logic with ``complete``; zeros come back as +0.0.
    """
    out = as_dense(initial) + 0.0
    indptr, indices, data = s.matrix.indptr, s.matrix.indices, s.matrix.data
    for j in range(out.shape[1]):
        x = [float(v) for v in out[:, j]]
        settled = [False] * len(x)
        heap = [(-v, k) for k, v in enumerate(x) if v > 0]
        heapq.heapify(heap)
        while heap:
            _, k = heapq.heappop(heap)
            if settled[k]:
                continue  # a stale offer, superseded by a larger one
            settled[k] = True
            for p in range(indptr[k], indptr[k + 1]):
                i = int(indices[p])
                offer = float(data[p]) * x[k]
                if not settled[i] and offer > x[i]:
                    x[i] = offer
                    heapq.heappush(heap, (-offer, i))
        out[:, j] = x
    return out


def dense_mm_oracle(a):
    """Matrix Market array text with every entry formatted on its own by
    ``repr``, as lsikit wrote dense files before it used scipy's writer."""
    lines = ["%%MatrixMarket matrix array real general", f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(repr(float(v)) for v in a.T.ravel())
    return ("\n".join(lines) + "\n").encode("ascii")


def _scientific(v):
    # the shortest round-trip digits d.ddd, then "E" and the exponent unless it is 0
    if np.isnan(v):
        return "NaN"
    if np.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    sign, digits, exponent = Decimal(repr(v)).normalize().as_tuple()
    head, tail = str(digits[0]), "".join(map(str, digits[1:]))
    power = exponent + len(digits) - 1
    return "-" * sign + head + ("." + tail if tail else "") + (f"E{power}" if power else "")


def scipy_dense_mm_oracle(a):
    """Matrix Market array text in the style of scipy's ``mmwrite``
    (fast_matrix_market), with every entry formatted on its own."""
    lines = ["%%MatrixMarket matrix array real general", "%", f"{a.shape[0]} {a.shape[1]}"]
    # each distinct bit pattern formatted once
    keys, where = np.unique(a.T.ravel().view(np.uint64), return_inverse=True)
    text = [_scientific(v) for v in keys.view(np.float64).tolist()]
    lines.extend(text[i] for i in where.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def sparse_mm_oracle(m):
    """Matrix Market coordinate text with every triplet formatted on its own."""
    lines = ["%%MatrixMarket matrix coordinate real general", f"{m.rows} {m.cols} {m.data.size}"]
    lines.extend(f"{int(r) + 1} {int(c) + 1} {float(v)!r}"
                 for r, c, v in zip(m.row, m.col, m.data))
    return ("\n".join(lines) + "\n").encode("ascii")


def dense_mm_read_oracle(path):
    """Array Matrix Market file parsed one Python ``float`` token at a
    time, after the banner, comments and size line."""
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        size_line = next(line for line in fh if line.strip() and not line.lstrip().startswith("%"))
        tokens = fh.read().split()
    rows, cols = (int(x) for x in size_line.split())
    if len(tokens) != rows * cols:
        raise ValueError(f"expected {rows * cols} tokens, found {len(tokens)}")
    return np.array(tokens, dtype=np.float64).reshape((cols, rows)).T


def _ranked_oracle(qv, a, col_norms):
    qn = np.linalg.norm(qv)
    if qn == 0:
        raise ValueError("query vector is zero: no terms matched the vocabulary")
    raw = qv @ a
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(col_norms > 0, raw / (qn * np.where(col_norms > 0, col_norms, 1.0)), 0.0)
    return np.lexsort((np.arange(a.shape[1]), -scores))


def iap_loop_oracle(ranking, relevant, points):
    """Interpolated average precision from a membership-test precision
    curve, one recall level at a time with the integer level test."""
    if points < 2:
        raise ValueError("points must be at least 2")
    rel = set(relevant)
    hits = np.fromiter((1 if doc in rel else 0 for doc in ranking), dtype=np.int64)
    r = np.cumsum(hits)
    p = r / np.arange(1, len(ranking) + 1)
    r_total = len(relevant)
    steps = points - 1
    acc = 0.0
    for level in range(points):
        hit = p[level * r_total <= r * steps]
        acc += float(hit.max()) if hit.size else 0.0
    return acc / points


def evaluate_oracle(queries, index, judgments, points=11, query_ids=None, doc_ids=None):
    """Per-query loop: rank each kept query with its own lexsort, then
    average its precision curve; returns ``(per_query, mean, skipped)``."""
    if points < 2:
        raise ValueError("points must be at least 2")
    qm = np.atleast_2d(np.asarray(queries, dtype=float))
    a = as_dense(index)
    if query_ids is None:
        query_ids = list(range(1, qm.shape[0] + 1))
    if doc_ids is None:
        doc_ids = list(range(1, a.shape[1] + 1))
    col_norms = np.linalg.norm(a, axis=0)
    per_query = []
    skipped = []
    for qid, row in zip(query_ids, qm):
        relevant = judgments.get(qid)
        if not relevant:
            warnings.warn(f"query {qid} has no relevance judgments; skipped", stacklevel=2)
            skipped.append(qid)
            continue
        if not row.any():
            warnings.warn(f"query {qid} is empty; skipped", stacklevel=2)
            skipped.append(qid)
            continue
        ranking = [doc_ids[j] for j in _ranked_oracle(row, a, col_norms)]
        per_query.append((qid, iap_loop_oracle(ranking, relevant, points)))
    mean = float(np.mean([v for _, v in per_query])) if per_query else 0.0
    return tuple(per_query), mean, tuple(skipped)


def nmf_dense_oracle(a, k, iterations, seed):
    """Multiplicative-update NMF with A dense in both of its products:
    same initial factors, update order and guard as ``nmf_factorize``."""
    dense = as_dense(a)
    rng = np.random.default_rng(seed)
    b = 1.0 - rng.random((dense.shape[0], k))
    c = 1.0 - rng.random((k, dense.shape[1]))
    for _ in range(iterations):
        c *= (b.T @ dense) / (b.T @ b @ c + 1e-9)
        b *= (dense @ c.T) / (b @ (c @ c.T) + 1e-9)
    return b, c


def nmf_error_trace(a, k, iterations, seed):
    """Frobenius error ||B C - A|| after each of the first ``iterations``
    updates: ``nmf_factorize`` rerun from ``seed`` for 1, 2, ... steps."""
    dense = as_dense(a)
    errors = []
    for i in range(1, iterations + 1):
        b, c = nmf_factorize(a, k, i, seed)
        errors.append(np.linalg.norm(b @ c - dense))
    return np.array(errors)


def zipf_matrix(seed, words=1400, docs=1000):
    """A log-scaled term-document matrix of Medline's shape (about
    1.1k words x 1k documents): 4-11 Zipfian tokens per document."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, words + 1) ** 0.9
    p /= p.sum()
    counts = np.zeros((words, docs))
    for j in range(docs):
        np.add.at(counts[:, j], rng.choice(words, size=int(rng.integers(4, 12)), p=p), 1.0)
    return np.log1p(counts[counts.any(axis=1)])


def sign_fix_oracle(vectors):
    """Flip each column whose largest-magnitude entry (the lowest row
    index among ties) is negative; the flipped copy and the signs."""
    out = np.array(vectors, dtype=float)
    signs = np.ones(out.shape[1])
    for j in range(out.shape[1]):
        col = out[:, j]
        if col.size == 0:
            continue
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            out[:, j] = -col
            signs[j] = -1.0
    return out, signs


def bipartite_embed_oracle(a):
    """Dense square symmetric embedding [[0, A], [A^T, 0]] of a rectangular
    matrix: its eigenvalues are the singular values of A and their negatives,
    and its eigenvector blocks span A's singular subspaces."""
    m, n = a.shape
    return np.block([[np.zeros((m, m)), a], [a.T, np.zeros((n, n))]])
