"""Cosine scoring and interpolated average-precision evaluation."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from lsikit import retrieval
from lsikit.matrix import rank_k_reconstruct, truncated_svd
from lsikit.retrieval import (
    evaluate,
    interpolated_avg_precision,
    pseudo_precision,
    score_query,
)

from oracle_utils import evaluate_oracle

from conftest import (
    POLYSEMY,
    QUERY_BANK_MONEY_SCORES,
    QUERY_MARK_TWAIN_SCORES,
    QUERY_RIVER_BANK_SCORES,
    SYNONYMY,
)


def _scores_by_doc(result, n):
    out = np.zeros(n)
    for doc, score in result:
        out[doc] = score
    return out


# ---------------------------------------------------------------------------
# score_query


def test_query_mark_twain_published_scores():
    q = np.array([1.0, 1.0, 0, 0, 0, 0])  # mark + twain
    scores = _scores_by_doc(score_query(q, SYNONYMY), 5)
    np.testing.assert_allclose(scores, QUERY_MARK_TWAIN_SCORES, atol=0.005)


def test_query_scores_on_rank2_polysemy_published():
    recon = rank_k_reconstruct(truncated_svd(POLYSEMY, 2))
    q1 = np.array([1.0, 0, 0, 1.0, 0])  # bank + money
    q2 = np.array([0, 0, 1.0, 1.0, 0])  # river + bank
    np.testing.assert_allclose(
        _scores_by_doc(score_query(q1, recon), 6), QUERY_BANK_MONEY_SCORES, atol=0.005
    )
    np.testing.assert_allclose(
        _scores_by_doc(score_query(q2, recon), 6), QUERY_RIVER_BANK_SCORES, atol=0.005
    )


def test_query_equal_to_document_scores_one():
    q = SYNONYMY[:, 2].copy()
    result = score_query(q, SYNONYMY)
    assert result[0][0] == 2
    assert result[0][1] == pytest.approx(1.0, abs=1e-12)


def test_query_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        score_query(np.zeros(6), SYNONYMY)


def test_zero_norm_document_scores_zero():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    result = dict(score_query(np.array([1.0, 1.0]), a))
    assert result[1] == 0.0


def test_ranking_ties_break_by_ascending_doc():
    a = np.array([[1.0, 1.0, 2.0]])
    ranked = [doc for doc, _ in score_query(np.array([1.0]), a)]
    assert ranked == [0, 1, 2]  # all cosines equal 1


def test_column_scaling_leaves_scores_unchanged():
    rng = np.random.default_rng(0)
    a = rng.random((4, 5)) + 0.1
    q = rng.random(4) + 0.1
    base = _scores_by_doc(score_query(q, a), 5)
    scaled = a.copy()
    scaled[:, 2] *= 37.5
    after = _scores_by_doc(score_query(q, scaled), 5)
    np.testing.assert_allclose(after, base, rtol=1e-12)


def test_document_permutation_permutes_ranking():
    rng = np.random.default_rng(1)
    a = rng.random((4, 6)) + 0.1
    q = rng.random(4) + 0.1
    perm = rng.permutation(6)
    base = [doc for doc, _ in score_query(q, a)]
    permuted = [doc for doc, _ in score_query(q, a[:, perm])]
    assert [perm[j] for j in permuted] == base


def test_query_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="terms"):
        score_query(np.ones(3), SYNONYMY)


# ---------------------------------------------------------------------------
# pseudo precision


def test_pseudo_precision_all_relevant_on_top():
    assert pseudo_precision([1, 2, 3, 4], {1, 2}, 0.7) == 1.0
    assert pseudo_precision([1, 2, 3, 4], {1, 2}, 1.0) == 1.0


def test_pseudo_precision_ranks_one_and_three():
    # p_n = 1, 1/2, 2/3, 1/2; recall levels reached: 1/2, 1/2, 1, 1
    assert pseudo_precision([7, 8, 9, 10], {7, 9}, 1.0) == pytest.approx(2 / 3)
    assert pseudo_precision([7, 8, 9, 10], {7, 9}, 0.5) == 1.0


def test_pseudo_precision_level_zero_is_global_max():
    assert pseudo_precision([8, 7, 9], {7, 9}, 0.0) == pytest.approx(2 / 3)


def test_pseudo_precision_non_increasing_in_level():
    rng = np.random.default_rng(3)
    ranking = list(rng.permutation(20))
    relevant = set(rng.choice(20, size=6, replace=False).tolist())
    values = [pseudo_precision(ranking, relevant, x) for x in np.linspace(0, 1, 21)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_pseudo_precision_rejects_empty_relevant():
    with pytest.raises(ValueError, match="nonempty"):
        pseudo_precision([1, 2], set(), 0.5)


# ---------------------------------------------------------------------------
# interpolated average precision


def _iap_oracle(ranking, relevant, points):
    # independent enumeration with exact rational recall levels
    r = 0
    curve = []
    for n, doc in enumerate(ranking, start=1):
        if doc in relevant:
            r += 1
        curve.append((Fraction(r, len(relevant)), Fraction(r, n)))
    total = Fraction(0)
    for i in range(points):
        level = Fraction(i, points - 1)
        reachable = [p for rec, p in curve if rec >= level]
        total += max(reachable) if reachable else Fraction(0)
    return float(total / points)


def test_iap_perfect_ranking():
    assert interpolated_avg_precision([1, 2, 3, 4], {1, 2}) == 1.0


def test_iap_ranks_one_and_three_eleven_points():
    value = interpolated_avg_precision([5, 6, 7, 8], {5, 7}, 11)
    assert value == pytest.approx((6 * 1.0 + 5 * (2 / 3)) / 11, rel=1e-12)
    assert value == pytest.approx(_iap_oracle([5, 6, 7, 8], {5, 7}, 11), rel=1e-12)


def test_iap_relevant_ranked_last_matches_oracle():
    ranking = list(range(1, 21))
    relevant = {19, 20}
    value = interpolated_avg_precision(ranking, relevant, 11)
    assert value == pytest.approx(_iap_oracle(ranking, relevant, 11), rel=1e-12)


def test_iap_matches_oracle_on_random_rankings():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        ranking = [int(d) for d in rng.permutation(n)]
        n_rel = int(rng.integers(1, n))
        relevant = set(int(d) for d in rng.choice(n, size=n_rel, replace=False))
        points = int(rng.integers(2, 13))
        mine = interpolated_avg_precision(ranking, relevant, points)
        assert 0.0 <= mine <= 1.0
        assert mine == pytest.approx(_iap_oracle(ranking, relevant, points), rel=1e-12)


def test_iap_validates_arguments():
    with pytest.raises(ValueError, match="points"):
        interpolated_avg_precision([1], {1}, 1)
    with pytest.raises(ValueError, match="nonempty"):
        interpolated_avg_precision([1], set(), 11)


def test_iap_is_one_only_for_perfect_rankings():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(4, 25))
        ranking = [int(d) for d in rng.permutation(n)]
        n_rel = int(rng.integers(1, n))
        relevant = set(int(d) for d in rng.choice(n, size=n_rel, replace=False))
        value = interpolated_avg_precision(ranking, relevant, 11)
        top_is_relevant = set(ranking[:n_rel]) == relevant
        assert (value == 1.0) == top_is_relevant


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_single_perfect_query():
    queries = np.array([[1.0, 0.0]])
    index = np.array([[1.0, 0.0], [0.0, 1.0]])
    report = evaluate(queries, index, {1: {1}})
    assert report.mean_avgp == 1.0
    assert report.per_query == ((1, 1.0),)


def test_evaluate_skips_queries_without_judgments():
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    index = np.eye(2)
    with pytest.warns(UserWarning, match="no relevance judgments"):
        report = evaluate(queries, index, {1: {1}})
    assert report.skipped == (2,)
    assert len(report.per_query) == 1


def test_evaluate_skips_zero_queries():
    queries = np.array([[1.0, 0.0], [0.0, 0.0]])
    index = np.eye(2)
    with pytest.warns(UserWarning, match="empty"):
        report = evaluate(queries, index, {1: {1}, 2: {2}})
    assert report.skipped == (2,)


@pytest.mark.parametrize("points", [0, 1])
@pytest.mark.parametrize("queries,judgments", [
    (np.ones((2, 3)), {}),                         # no query has judgments
    (np.zeros((2, 3)), {1: {1}, 2: {2}}),          # every query is empty
], ids=["unjudged", "empty"])
def test_evaluate_rejects_points_when_every_query_is_skipped(queries, judgments, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any query is looked at
        with pytest.raises(ValueError, match="points must be at least 2"):
            evaluate(queries, np.eye(3), judgments, points=points)


def test_evaluate_deterministic_and_mean_is_arithmetic():
    rng = np.random.default_rng(5)
    queries = rng.random((4, 6)) + 0.01
    index = rng.random((6, 9)) + 0.01
    judgments = {1: {1, 3}, 2: {2}, 3: {4, 5, 6}, 4: {9}}
    a = evaluate(queries, index, judgments)
    b = evaluate(queries, index, judgments)
    assert a == b
    assert a.mean_avgp == pytest.approx(np.mean([v for _, v in a.per_query]), rel=1e-15)


def test_evaluate_respects_custom_doc_ids():
    queries = np.array([[1.0, 0.0]])
    index = np.array([[0.0, 1.0], [1.0, 0.0]])  # doc '200' matches the query
    report = evaluate(queries, index, {1: {200}}, doc_ids=[100, 200])
    assert report.mean_avgp == 1.0


def test_evaluate_dimension_mismatch_names_axis():
    with pytest.raises(ValueError, match="terms"):
        evaluate(np.ones((1, 3)), np.eye(2), {1: {1}})


def test_evaluate_rankings_equal_per_query_score_query(monkeypatch):
    rng = np.random.default_rng(11)
    index = np.where(rng.random((30, 40)) < 0.3, np.round(rng.random((30, 40)), 1), 0.0)
    index[:, 5] = 0.0                       # a zero-norm document
    index[:, 7] = index[:, 3] * 2.0         # a tie with document 3
    queries = np.where(rng.random((12, 30)) < 0.2, 1.0, 0.0)
    queries[4] = 0.0                        # skipped: empty
    doc_ids = list(range(101, 141))
    judgments = {q: {101 + int(d) for d in rng.choice(40, 3, replace=False)}
                 for q in range(1, 13)}
    calls = []
    rank = retrieval._rank

    def record(rows, q_norms, a, col_norms):
        scores, order = rank(rows, q_norms, a, col_norms)
        calls.append((col_norms, order))
        return scores, order

    monkeypatch.setattr(retrieval, "_rank", record)
    with pytest.warns(UserWarning, match="empty"):
        report = evaluate(queries, index, judgments, doc_ids=doc_ids)
    # one column-norm vector for the whole index, all queries ranked at once
    assert len(calls) == 1
    col_norms, order = calls[0]
    np.testing.assert_array_equal(col_norms, np.linalg.norm(index, axis=0))
    evaluated = [q for q, _ in report.per_query]
    assert len(evaluated) == len(order) == 11
    for (qid, avgp), ranked in zip(report.per_query, order):
        ranking = [doc_ids[j] for j, _ in score_query(queries[qid - 1], index)]
        assert [doc_ids[j] for j in ranked] == ranking
        assert avgp.hex() == interpolated_avg_precision(ranking, judgments[qid]).hex()


# ---------------------------------------------------------------------------
# batched evaluate against the per-query loop, bit for bit

DIFF_SEED = 20261018
DIFF_TRIALS = 600


def _outcome(fn, *args, **kwargs):
    """``(per_query, mean, skipped)`` with floats as hex, or the
    ValueError message; plus the warning messages in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except ValueError as exc:
            return ("ValueError", str(exc)), [str(w.message) for w in caught]
    if isinstance(result, retrieval.EvalReport):
        result = (result.per_query, result.mean_avgp, result.skipped)
    per_query, mean, skipped = result
    bits = (tuple((q, v.hex()) for q, v in per_query), mean.hex(), skipped)
    return bits, [str(w.message) for w in caught]


def _diff_case(rng):
    m, n, q = int(rng.integers(1, 10)), int(rng.integers(0, 14)), int(rng.integers(1, 8))
    kind = int(rng.integers(0, 3))
    if kind == 0:  # small integers: many exact ties, negative entries
        index = rng.integers(-2, 4, (m, n)).astype(float)
    elif kind == 1:
        index = np.where(rng.random((m, n)) < 0.4, rng.standard_normal((m, n)), 0.0)
    else:
        index = np.round(rng.random((m, n)), 1)
    if n:
        index[:, rng.integers(n)] = 0.0  # a zero-norm column
        index[:, rng.integers(n)] = index[:, rng.integers(n)] * rng.choice([1.0, 2.0, 0.5])
    queries = rng.integers(-1, 3, (q, m)).astype(float)
    queries[rng.random(q) < 0.15] = 0.0  # empty rows are skipped
    if rng.random() < 0.03:  # nonzero entries whose norm underflows to zero
        queries[rng.integers(q)] = np.where(rng.random(m) < 0.5, 1e-200, 0.0)
    query_ids = None if rng.random() < 0.5 else [int(x) for x in rng.permutation(q) + 10]
    doc_style = int(rng.integers(0, 4))
    if doc_style == 0:
        doc_ids, pool = None, list(range(1, n + 1)) or [1]
    elif doc_style == 1:  # duplicate doc ids
        doc_ids = [int(x) for x in rng.integers(0, max(n // 2, 1), n)]
        pool = list(range(max(n // 2, 1)))
    elif doc_style == 2:
        doc_ids = [int(x) for x in rng.permutation(n) * 3]
        pool = doc_ids or [0]
    else:
        doc_ids = [f"d{x}" for x in rng.permutation(n)]
        pool = doc_ids or ["d0"]
    judgments = {}
    for qid in (query_ids or range(1, q + 1)):
        roll = rng.random()
        if roll < 0.15:
            continue  # no judgments: skipped
        if roll < 0.2:
            judgments[qid] = set()  # empty judgments: skipped
            continue
        size = int(rng.integers(1, len(pool) + 1))
        relevant = {pool[i] for i in rng.choice(len(pool), size, replace=False)}
        if rng.random() < 0.3:
            relevant.add("missing" if doc_style == 3 else -7)  # not in the index
        judgments[qid] = relevant
    points = int(rng.integers(1, 13))
    return queries, index, judgments, points, query_ids, doc_ids


def test_evaluate_matches_per_query_loop_bitwise():
    rng = np.random.default_rng(DIFF_SEED)
    seen = {"evaluated": 0, "raised": 0, "skipped": 0, "no_docs": 0}
    for trial in range(DIFF_TRIALS):
        queries, index, judgments, points, query_ids, doc_ids = _diff_case(rng)
        kwargs = dict(query_ids=query_ids, doc_ids=doc_ids)
        mine = _outcome(evaluate, queries, index, judgments, points, **kwargs)
        want = _outcome(evaluate_oracle, queries, index, judgments, points, **kwargs)
        assert mine == want, f"trial {trial}"
        result = mine[0]
        seen["raised" if result[0] == "ValueError" else "evaluated"] += 1
        seen["skipped"] += bool(result[0] != "ValueError" and result[2])
        seen["no_docs"] += index.shape[1] == 0
    assert min(seen.values()) >= 10, seen


def _zipf_collection(seed, words=6000, docs=82, n_queries=35):
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, words + 1) ** 0.9
    p /= p.sum()
    counts = np.zeros((words, docs))
    for j in range(docs):
        np.add.at(counts[:, j], rng.choice(words, size=int(rng.integers(15, 42)), p=p), 1.0)
    keep = counts.any(axis=1)
    a = np.log1p(counts[keep])
    queries = np.zeros((n_queries, a.shape[0]))
    for i in range(n_queries):
        queries[i, rng.choice(a.shape[0], size=int(rng.integers(3, 12)))] = 1.0
    judgments = {i + 1: {int(d) for d in rng.choice(docs, size=int(rng.integers(1, 9)),
                                                    replace=False) + 1}
                 for i in range(n_queries)}
    return a, queries, judgments


def test_evaluate_matches_per_query_loop_over_svd_rank_sweep():
    a, queries, judgments = _zipf_collection(7)
    assert a.shape[0] > 1000
    full = truncated_svd(a, min(a.shape))
    for k in range(1, 41):
        approx = (full.left[:, :k] * full.values[:k]) @ full.right[:, :k].T
        assert rank_k_reconstruct(full, k).tobytes() == approx.tobytes(), f"rank {k}"
        mine = _outcome(evaluate, queries, approx, judgments, 11)
        assert mine == _outcome(evaluate_oracle, queries, approx, judgments, 11), f"rank {k}"
