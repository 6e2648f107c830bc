"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's own code paths: plain loops,
LAPACK via numpy, direct evaluation of the unrolled propagation
chains, and cyclic Jacobi solvers independent of the LAPACK the
library calls."""

import numpy as np


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
