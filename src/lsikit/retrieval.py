"""Vector-space retrieval and interpolated average-precision evaluation.

Queries are scored by cosine against every document column of an index
matrix.  Effectiveness is summarized by pseudo-precision (the best
precision among ranking cutoffs whose recall reaches a requested level)
averaged over evenly spaced recall levels; the level comparisons are
done in exact integer arithmetic so the endpoints carry no floating
drift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .matrix import as_dense


@dataclass(frozen=True)
class EvalReport:
    """Per-query interpolated average precision and the run mean."""

    per_query: tuple  # ((query id, average precision), ...)
    mean_avgp: float
    points: int
    skipped: tuple = ()
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "index": dict(self.meta),
            "points": self.points,
            "per_query": [{"qid": q, "avgp": v} for q, v in self.per_query],
            "mean_avgp": self.mean_avgp,
            "skipped": list(self.skipped),
        }


def score_query(q, index):
    """Cosine of a query against every column, ranked.

    Returns ``[(column, score), ...]`` ordered by descending score, ties
    by ascending column.  Zero-norm columns score 0; an all-zero query
    is rejected (it matched no vocabulary term).
    """
    a = as_dense(index)
    return _ranked(q, a, np.linalg.norm(a, axis=0))


def _ranked(q, a, col_norms):
    """:func:`score_query` with the index's column norms precomputed."""
    qv = np.asarray(q, dtype=float).ravel()
    if qv.shape[0] != a.shape[0]:
        raise ValueError(
            f"query has {qv.shape[0]} terms but index has {a.shape[0]} rows"
        )
    qn = np.linalg.norm(qv)
    if qn == 0:
        raise ValueError("query vector is zero: no terms matched the vocabulary")
    raw = qv @ a
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(col_norms > 0, raw / (qn * np.where(col_norms > 0, col_norms, 1.0)), 0.0)
    order = np.lexsort((np.arange(a.shape[1]), -scores))
    return [(int(j), float(scores[j])) for j in order]


def _precision_curve(ranking, relevant):
    rel = set(relevant)
    hits = np.fromiter((1 if doc in rel else 0 for doc in ranking), dtype=np.int64)
    r = np.cumsum(hits)
    n = np.arange(1, len(ranking) + 1)
    return r, r / n


def pseudo_precision(ranking, relevant, x: float) -> float:
    """Best precision over cutoffs whose recall reaches level ``x``.

    ``ranking`` is a sequence of document ids, best first; ``relevant``
    the nonempty set of relevant ids; 0 when no cutoff reaches ``x``.
    """
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    if not 0.0 <= x <= 1.0:
        raise ValueError("recall level must lie in [0, 1]")
    r, p = _precision_curve(ranking, relevant)
    reachable = p[r / len(relevant) >= x] if len(r) else p[:0]
    return float(reachable.max()) if reachable.size else 0.0


def interpolated_avg_precision(ranking, relevant, points: int = 11) -> float:
    """Mean pseudo-precision over recall levels 0, 1/(points-1), ..., 1.

    The level test "l/(points-1) <= r_n/r_N" is evaluated as
    ``l * r_N <= r_n * (points - 1)`` in integers, exact at both ends.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    r, p = _precision_curve(ranking, relevant)
    r_total = len(relevant)
    steps = points - 1
    acc = 0.0
    for level in range(points):
        mask = level * r_total <= r * steps
        hit = p[mask]
        acc += float(hit.max()) if hit.size else 0.0
    return acc / points


def evaluate(queries, index, judgments, points: int = 11, query_ids=None,
             doc_ids=None, meta=None) -> EvalReport:
    """Average precision per query plus the mean over evaluated queries.

    ``queries`` is a Q x M matrix of query rows, ``judgments`` maps
    query id to its set of relevant document ids.  Queries without
    judgments, or with empty rows, are skipped with a warning and do not
    enter the mean.  Query and document ids default to 1-based
    positions.
    """
    qm = np.atleast_2d(np.asarray(queries, dtype=float))
    a = as_dense(index)
    if qm.shape[1] != a.shape[0]:
        raise ValueError(
            f"queries have {qm.shape[1]} terms but index has {a.shape[0]} rows"
        )
    n_docs = a.shape[1]
    if query_ids is None:
        query_ids = list(range(1, qm.shape[0] + 1))
    if doc_ids is None:
        doc_ids = list(range(1, n_docs + 1))
    if len(query_ids) != qm.shape[0]:
        raise ValueError("query id count does not match query rows")
    if len(doc_ids) != n_docs:
        raise ValueError("document id count does not match index columns")
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
        ranking = [doc_ids[j] for j, _ in _ranked(row, a, col_norms)]
        per_query.append((qid, interpolated_avg_precision(ranking, relevant, points)))
    mean = float(np.mean([v for _, v in per_query])) if per_query else 0.0
    return EvalReport(tuple(per_query), mean, points, tuple(skipped), dict(meta or {}))
