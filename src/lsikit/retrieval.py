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
    qv = np.asarray(q, dtype=float).ravel()
    qn = _query_norm(qv, a.shape[0])
    scores, order = _rank([qv], np.array([qn]), a, np.linalg.norm(a, axis=0))
    return [(int(j), float(scores[0, j])) for j in order[0]]


def _query_norm(qv, terms):
    """Euclidean norm of a query row, rejecting a wrong length or a zero norm."""
    if qv.shape[0] != terms:
        raise ValueError(f"query has {qv.shape[0]} terms but index has {terms} rows")
    qn = np.linalg.norm(qv)
    if qn == 0:
        raise ValueError("query vector is zero: no terms matched the vocabulary")
    return qn


def _rank(rows, q_norms, a, col_norms):
    """Cosine scores (Q x N) of query rows against the columns of ``a``
    and each row's ranking: column indices by descending score, ties by
    ascending column.

    Each query keeps its own matrix-vector product: one Q x M by M x N
    product changes the last bits of some scores, and nearly tied
    low-rank cosines then swap places.
    """
    raw = np.empty((len(rows), a.shape[1]))
    for i, row in enumerate(rows):
        raw[i] = row @ a
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(col_norms > 0,
                          raw / (q_norms[:, None] * np.where(col_norms > 0, col_norms, 1.0)),
                          0.0)
    return scores, np.argsort(-scores, axis=1, kind="stable")


def _relevance(doc_ids, relevant_sets):
    """Q x N booleans: is ``doc_ids[j]`` in query q's relevant set."""
    columns = {}
    for j, doc in enumerate(doc_ids):
        columns.setdefault(doc, []).append(j)
    rel = np.zeros((len(relevant_sets), len(doc_ids)), dtype=bool)
    for i, relevant in enumerate(relevant_sets):
        rel[i, [j for doc in set(relevant) for j in columns.get(doc, ())]] = True
    return rel


def _curve(hits):
    """Relevant documents found, and precision, at every cutoff of each
    row of a rank-ordered relevance matrix."""
    r = np.cumsum(hits, axis=1, dtype=np.int64)
    return r, r / np.arange(1, hits.shape[1] + 1)


def _best_precision(p, reached):
    """Per row, the largest precision among reached cutoffs, else 0."""
    return np.where(reached, p, 0.0).max(axis=1, initial=0.0)


def _avg_precision(hits, r_totals, points):
    """Interpolated average precision of each row of ``hits``, whose
    query has ``r_totals[q]`` relevant documents; see
    :func:`interpolated_avg_precision`."""
    r, p = _curve(hits)
    r_total = np.array(r_totals, dtype=np.int64)[:, None]
    steps = points - 1
    acc = np.zeros(hits.shape[0])
    for level in range(points):
        acc += _best_precision(p, level * r_total <= r * steps)
    return acc / points


def pseudo_precision(ranking, relevant, x: float) -> float:
    """Best precision over cutoffs whose recall reaches level ``x``.

    ``ranking`` is a sequence of document ids, best first; ``relevant``
    the nonempty set of relevant ids; 0 when no cutoff reaches ``x``.
    """
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    if not 0.0 <= x <= 1.0:
        raise ValueError("recall level must lie in [0, 1]")
    r, p = _curve(_relevance(ranking, [relevant]))
    return float(_best_precision(p, r / len(relevant) >= x)[0])


def interpolated_avg_precision(ranking, relevant, points: int = 11) -> float:
    """Mean pseudo-precision over recall levels 0, 1/(points-1), ..., 1.

    The level test "l/(points-1) <= r_n/r_N" is evaluated as
    ``l * r_N <= r_n * (points - 1)`` in integers, exact at both ends.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    return float(_avg_precision(_relevance(ranking, [relevant]), [len(relevant)], points)[0])


@dataclass(frozen=True)
class PreparedQueries:
    """The evaluated queries of a run, ready to score against any index
    of one shape: what :func:`prepare_queries` returns."""

    shape: tuple  # (terms, documents) of the indexes they score
    points: int
    kept: tuple  # ids of the evaluated queries
    rows: tuple  # their query rows
    q_norms: np.ndarray
    relevance: np.ndarray  # Q x N: is document j relevant to query q
    r_totals: tuple  # relevant documents per query
    skipped: tuple


def prepare_queries(queries, judgments, shape, points: int = 11, query_ids=None,
                    doc_ids=None) -> PreparedQueries:
    """The index-independent half of :func:`evaluate`, for indexes of
    ``shape`` (terms, documents): the checks, the skipped queries with
    their warnings, the query norms and the relevance matrix.  Score it
    with :func:`evaluate_prepared`, once per index."""
    if points < 2:
        raise ValueError("points must be at least 2")
    qm = np.atleast_2d(np.asarray(queries, dtype=float))
    terms, n_docs = shape
    if qm.shape[1] != terms:
        raise ValueError(f"queries have {qm.shape[1]} terms but index has {terms} rows")
    if query_ids is None:
        query_ids = list(range(1, qm.shape[0] + 1))
    if doc_ids is None:
        doc_ids = list(range(1, n_docs + 1))
    if len(query_ids) != qm.shape[0]:
        raise ValueError("query id count does not match query rows")
    if len(doc_ids) != n_docs:
        raise ValueError("document id count does not match index columns")
    kept, rows, q_norms, relevant_sets = [], [], [], []
    skipped = []
    for qid, row in zip(query_ids, qm):
        relevant = judgments.get(qid)
        if not relevant:
            warnings.warn(f"query {qid} has no relevance judgments; skipped", stacklevel=3)
            skipped.append(qid)
            continue
        if not row.any():
            warnings.warn(f"query {qid} is empty; skipped", stacklevel=3)
            skipped.append(qid)
            continue
        q_norms.append(_query_norm(row, terms))
        kept.append(qid)
        rows.append(row)
        relevant_sets.append(relevant)
    return PreparedQueries(tuple(shape), points, tuple(kept), tuple(rows), np.array(q_norms),
                           _relevance(doc_ids, relevant_sets),
                           tuple(len(r) for r in relevant_sets), tuple(skipped))


def evaluate_prepared(prepared: PreparedQueries, index, meta=None) -> EvalReport:
    """:func:`evaluate` of the queries of ``prepared`` against ``index``,
    which must have the shape they were prepared for."""
    a = as_dense(index)
    if a.shape != prepared.shape:
        raise ValueError(f"index has shape {a.shape}, queries were prepared for {prepared.shape}")
    _, order = _rank(prepared.rows, prepared.q_norms, a, np.linalg.norm(a, axis=0))
    hits = np.take_along_axis(prepared.relevance, order, axis=1)
    avgp = _avg_precision(hits, prepared.r_totals, prepared.points)
    per_query = [(qid, float(v)) for qid, v in zip(prepared.kept, avgp)]
    mean = float(np.mean([v for _, v in per_query])) if per_query else 0.0
    return EvalReport(tuple(per_query), mean, prepared.points, prepared.skipped,
                      dict(meta or {}))


def evaluate(queries, index, judgments, points: int = 11, query_ids=None,
             doc_ids=None, meta=None) -> EvalReport:
    """Average precision per query plus the mean over evaluated queries.

    ``queries`` is a Q x M matrix of query rows, ``judgments`` maps
    query id to its set of relevant document ids.  Queries without
    judgments, or with empty rows, are skipped with a warning and do not
    enter the mean.  Query and document ids default to 1-based
    positions.  All evaluated queries are scored, ranked and averaged
    together, with the same results as :func:`score_query` and
    :func:`interpolated_avg_precision` one query at a time.  It is
    :func:`prepare_queries` followed by :func:`evaluate_prepared`.
    """
    a = as_dense(index)
    prepared = prepare_queries(queries, judgments, a.shape, points, query_ids, doc_ids)
    return evaluate_prepared(prepared, a, meta)
