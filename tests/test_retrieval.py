"""Cosine scoring and interpolated average-precision evaluation."""

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
    seen = []
    inner = retrieval.interpolated_avg_precision
    norms_seen = []
    ranked = retrieval._ranked

    def record_ranking(ranking, relevant, points=11):
        seen.append(list(ranking))
        return inner(ranking, relevant, points)

    def record_norms(q, a, col_norms):
        norms_seen.append(col_norms)
        return ranked(q, a, col_norms)

    monkeypatch.setattr(retrieval, "interpolated_avg_precision", record_ranking)
    monkeypatch.setattr(retrieval, "_ranked", record_norms)
    with pytest.warns(UserWarning, match="empty"):
        report = evaluate(queries, index, judgments, doc_ids=doc_ids)
    evaluated = [q for q, _ in report.per_query]
    assert len(seen) == len(evaluated) == len(norms_seen) == 11
    # one column-norm vector for the whole index
    assert all(n is norms_seen[0] for n in norms_seen)
    for qid, ranking in zip(evaluated, seen):
        assert ranking == [doc_ids[j] for j, _ in score_query(queries[qid - 1], index)]
