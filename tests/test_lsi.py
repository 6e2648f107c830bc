"""Similarity matrix, completion step, fixpoint iteration, %PS."""

import tracemalloc

import numpy as np
import pytest

from lsikit import lsi
from lsikit.lsi import (
    CompletionTrace,
    SimilarityMatrix,
    complete,
    completion_step,
    perfect_pair_percentage,
    word_similarity,
)
from lsikit.matrix import SparseMatrix, frobenius_norm

from conftest import POLYSEMY, SYNONYMY


from oracle_utils import chain_oracle as _chain_oracle
from oracle_utils import closure_oracle
from oracle_utils import complete_oracle, completion_step_oracle, zipf_matrix
from oracle_utils import cosine_rows_oracle as _cosine_rows_oracle


# ---------------------------------------------------------------------------
# word_similarity


def test_similarity_money_bank_pair():
    s = word_similarity(SparseMatrix.from_dense(POLYSEMY))
    # money = [1,0,1,0,0,0] vs bank = all ones: 2 / sqrt(2 * 6)
    assert s.matrix[0, 3] == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-12)
    assert s.matrix[3, 0] == s.matrix[0, 3]


def test_similarity_identical_rows_is_one():
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 3.0]])
    s = word_similarity(a)
    assert s.matrix[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_similarity_disjoint_rows_unstored():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    s = word_similarity(a)
    assert s.nnz == 0


def test_similarity_matches_oracle():
    rng = np.random.default_rng(0)
    a = np.where(rng.random((6, 5)) > 0.4, rng.random((6, 5)), 0.0)
    s = word_similarity(a).matrix.toarray()
    np.testing.assert_allclose(s, _cosine_rows_oracle(a), atol=1e-12)


def test_similarity_zero_row_flagged_not_fatal():
    a = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.warns(UserWarning, match="zero rows"):
        s = word_similarity(a)
    assert s.zero_rows == (1,)
    assert np.all(s.matrix.toarray()[1] == 0)


def test_similarity_rejects_negative_input():
    with pytest.raises(ValueError, match="nonnegative"):
        word_similarity(np.array([[1.0, -1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_similarity_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        word_similarity(np.array([[1.0, bad], [0.5, 1.0]]))


@pytest.mark.parametrize("dim, dense, problem", [
    (3, [[0.0, 0.5], [0.5, 0.0]], "shape mismatch"),
    (2, [[0.0, 0.5], [0.25, 0.0]], "exactly symmetric"),
    (2, [[0.0, 1.5], [1.5, 0.0]], r"\[0, 1\]"),
    (2, [[0.0, -0.5], [-0.5, 0.0]], r"\[0, 1\]"),
    (2, [[0.5, 0.5], [0.5, 0.0]], "diagonal"),
], ids=["shape", "asymmetric", "above-one", "negative", "stored-diagonal"])
def test_similarity_matrix_construction_errors(dim, dense, problem):
    from scipy import sparse as sp

    with pytest.raises(ValueError, match=problem):
        SimilarityMatrix(dim, sp.csr_matrix(np.array(dense)))


# ---------------------------------------------------------------------------
# completion_step


def test_step_no_similarity_is_identity():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])  # disjoint rows, S = 0
    s = word_similarity(a)
    np.testing.assert_array_equal(completion_step(a, s), a)


def test_step_polysemy_single_iteration_published_entries():
    s = word_similarity(POLYSEMY)
    one = completion_step(POLYSEMY, s)
    assert one[0, 1] == pytest.approx(0.58, abs=0.005)  # money, Doc2
    assert one[1, 0] == pytest.approx(0.71, abs=0.005)  # bed, Doc1


def test_step_parallel_rows_merge_supports():
    # rows 0 and 1 are scalar multiples with exactly representable unit
    # vectors (3-4-5 shape), so their cosine is exactly 1; row 2 disjoint
    a = np.array([[3.0, 0.0, 4.0], [6.0, 0.0, 8.0], [0.0, 5.0, 0.0]])
    s = word_similarity(a)
    assert s.matrix[0, 1] == 1.0
    out = completion_step(a, s)
    np.testing.assert_array_equal(out[0], np.maximum(a[0], a[1]))
    np.testing.assert_array_equal(out[1], np.maximum(a[0], a[1]))


def test_step_dominates_input_and_uses_snapshot():
    rng = np.random.default_rng(1)
    a = np.where(rng.random((5, 4)) > 0.5, rng.random((5, 4)), 0.0)
    a[:, 0] += 0.5  # no zero rows
    s = word_similarity(a)
    out = completion_step(a, s)
    assert np.all(out >= a)
    np.testing.assert_allclose(out, _chain_oracle(a, 1), rtol=1e-12, atol=1e-12)


def test_step_shape_mismatch_rejected():
    s = word_similarity(np.eye(3))
    with pytest.raises(ValueError, match="rows"):
        completion_step(np.eye(4), s)


# ---------------------------------------------------------------------------
# complete


def test_complete_synonymy_matches_chain_oracle():
    completed, trace = complete(SparseMatrix.from_dense(SYNONYMY))
    assert trace.converged
    oracle = _chain_oracle(SYNONYMY, trace.conviter)
    np.testing.assert_allclose(completed, oracle, rtol=1e-10)
    # spot values at full precision, derived from the chain oracle
    assert completed[0, 1] == pytest.approx(4.29325, abs=1e-4)   # mark, Doc2
    assert completed[2, 0] == pytest.approx(5.36656, abs=1e-4)   # samuel, Doc1
    assert completed[5, 3] == pytest.approx(17.88854, abs=1e-4)  # colour, Doc4


def test_complete_polysemy_bank_row_exact_ones():
    completed, trace = complete(SparseMatrix.from_dense(POLYSEMY))
    assert trace.converged
    assert trace.conviter == 2
    np.testing.assert_array_equal(completed[3], np.ones(6))
    oracle = _chain_oracle(POLYSEMY, trace.conviter)
    np.testing.assert_allclose(completed, oracle, rtol=1e-10)


def test_complete_orthogonal_rows_fixpoint_is_input():
    a = np.diag([1.0, 2.0, 3.0])
    completed, trace = complete(a)
    np.testing.assert_array_equal(completed, a)
    assert trace.conviter == 1
    assert trace.converged


def test_complete_trace_shape_and_monotone_norms():
    completed, trace = complete(SYNONYMY, maxiter=50)
    assert trace.converged
    assert trace.conviter <= 50
    assert trace.norms[0] == pytest.approx(frobenius_norm(SYNONYMY), rel=1e-15)
    assert np.all(np.diff(trace.norms) >= 0)
    # final norm corresponds to the returned matrix
    assert trace.norms[-1] == pytest.approx(frobenius_norm(completed), rel=1e-15)


def test_complete_fixpoint_idempotent_bitwise():
    completed, _ = complete(SYNONYMY)
    again = completion_step(completed, word_similarity(SYNONYMY))
    np.testing.assert_array_equal(again, completed)


def test_complete_maxiter_exhaustion_reports_not_converged():
    _, trace = complete(SYNONYMY, maxiter=2)
    assert trace.changed == (8, 1)  # still moving when the cap cuts it off
    assert not trace.converged
    assert trace.conviter == 2


@pytest.mark.parametrize("a, maxiter", [(POLYSEMY, 2), (np.diag([1.0, 2.0, 3.0]), 1)])
def test_complete_fixpoint_at_the_cap_reports_converged(a, maxiter):
    # the idle step proves the fixpoint, even when it is the last allowed
    completed, trace = complete(a, maxiter=maxiter)
    assert trace.changed[-1] == 0
    assert trace.converged
    assert trace.conviter == maxiter
    _assert_same_bytes(completed, complete(a)[0])


def test_complete_norm_collision_does_not_stop_early():
    # one huge entry makes the Frobenius norm blind to a real update:
    # norm-based stopping would declare convergence after one step,
    # entrywise comparison must keep going to the true fixpoint.
    a = np.array([[1e9, 0.0], [1e9, 2.0]])
    completed, trace = complete(a)
    assert trace.norms[1] == trace.norms[0]          # the collision
    assert not np.array_equal(completed, a)          # but the matrix moved
    assert completed[0, 1] > 0
    again = completion_step(completed, word_similarity(a))
    np.testing.assert_array_equal(again, completed)  # true fixpoint reached
    assert trace.converged


def test_complete_chain_acquires_weight_after_two_iterations():
    # three words where 1 and 3 share nothing, both overlap word 2
    a = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 5.0],
        ]
    )
    s = word_similarity(a)
    s12 = s.matrix[0, 1]
    s23 = s.matrix[1, 2]
    assert s.matrix[0, 2] == 0.0
    step1 = completion_step(a, s)
    assert step1[0, 2] == 0.0                      # nothing reaches word 1 yet
    step2 = completion_step(step1, s)
    assert step2[0, 2] == pytest.approx(s12 * s23 * 5.0, rel=1e-12)


def test_complete_validates_arguments():
    with pytest.raises(ValueError, match="maxiter"):
        complete(np.eye(2), maxiter=0)
    with pytest.raises(ValueError, match="nonnegative"):
        complete(np.array([[-1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_complete_rejects_non_finite_input(bad):
    # NaN used to pass the sign check and run to maxiter with NaN norms
    a = np.array([[1.0, 0.0], [1.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        complete(a)


def test_trace_rejects_decreasing_norms():
    with pytest.raises(ValueError, match="non-decreasing"):
        CompletionTrace((2.0, 1.0), 1, True, 0.0)


# ---------------------------------------------------------------------------
# perfect_pair_percentage


def test_ps_orthogonal_rows_zero():
    assert perfect_pair_percentage(word_similarity(np.eye(4))) == 0.0


def test_ps_one_perfect_pair_of_three():
    a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    ps = perfect_pair_percentage(word_similarity(a))
    assert ps == pytest.approx(100.0 / 3.0, rel=1e-12)


def test_ps_single_row_is_zero():
    assert perfect_pair_percentage(word_similarity(np.array([[1.0, 2.0]]))) == 0.0


# ---------------------------------------------------------------------------
# semi-naive steps against the full per-row step and loop

DIFF_SEED = 20261018
DIFF_TRIALS = 200
CLOSURE_SEED = 19771001
CLOSURE_TRIALS = 200
INPUT_KINDS = ("sparse", "dense", "rounded", "zero_rows", "negative_zero")


def _random_input(rng, kind):
    m, n = int(rng.integers(2, 26)), int(rng.integers(1, 16))
    density = rng.uniform(0.85, 1.0) if kind == "dense" else rng.uniform(0.05, 0.4)
    a = np.where(rng.random((m, n)) < density, rng.random((m, n)), 0.0)
    if kind == "rounded":
        # few distinct values: tied candidates, repeated and parallel rows
        a = np.round(a * 3.0) / 2.0
        a[rng.integers(0, m)] = a[rng.integers(0, m)] * 2.0
    if kind == "zero_rows":
        a[rng.random(m) < 0.3] = 0.0
    if kind == "negative_zero":
        a[(a == 0.0) & (rng.random((m, n)) < 0.7)] = -0.0
    return a


def _trials():
    rng = np.random.default_rng(DIFF_SEED)
    for t in range(DIFF_TRIALS):
        a = _random_input(rng, INPUT_KINDS[t % len(INPUT_KINDS)])
        maxiter = int(rng.integers(1, 3)) if t % 9 == 0 else 100
        yield a, maxiter, 1 + t % 4


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = {"_scatter": 0, "_dense_block": 0}
    for name in calls:
        inner = getattr(lsi, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(lsi, name, counted)
    return calls


@pytest.mark.filterwarnings("ignore:.*zero rows")
def test_complete_equals_full_step_loop_bitwise(monkeypatch, kernel_calls):
    capped = windowed = 0
    for a, maxiter, window in _trials():
        got, trace = complete(a, maxiter=maxiter)
        # every step forced to the dense block gives the same result
        with monkeypatch.context() as forced:
            forced.setattr(lsi, "_PUSH_COST", 10**9)
            dense, dense_trace = complete(a, maxiter=maxiter)
        _assert_same_bytes(dense, got)
        assert dense_trace == trace
        # zeros come back as +0.0: bytes match the loop on the
        # canonical input, values and trace match it on the raw input
        want, _ = complete_oracle(a + 0.0, maxiter, 1)
        raw, raw_trace = complete_oracle(a, maxiter, 1)
        _assert_same_bytes(got, want)
        np.testing.assert_array_equal(got, raw)
        assert trace == raw_trace
        assert trace.changed.count(0) == int(trace.converged)
        assert not np.any(np.signbit(got) & (got == 0))
        # a longer stability window only appends idle steps
        longer, longer_trace = complete_oracle(a + 0.0, maxiter, window)
        if window > 1 and longer_trace.converged:
            _assert_same_bytes(got, longer)
            assert trace.conviter == longer_trace.conviter
            windowed += 1
        capped += not trace.converged
    assert capped > 0 and windowed > 0
    assert kernel_calls["_scatter"] > 0 and kernel_calls["_dense_block"] > 0


@pytest.mark.parametrize("push_cost", [0, 10**9])
@pytest.mark.filterwarnings("ignore:.*zero rows")
def test_complete_equals_label_setting_closure_bitwise(monkeypatch, push_cost):
    # an oracle that shares no step semantics: the fixpoint is the best
    # similarity path product per entry, whatever order computes it;
    # push_cost 0 forces every step to scatter, 10**9 to the dense block
    monkeypatch.setattr(lsi, "_PUSH_COST", push_cost)
    rng = np.random.default_rng(CLOSURE_SEED)
    raised = 0
    for t in range(CLOSURE_TRIALS):
        a = _random_input(rng, INPUT_KINDS[t % len(INPUT_KINDS)])
        got, trace = complete(a)
        assert trace.converged
        _assert_same_bytes(got, closure_oracle(a, word_similarity(a)))
        raised += bool(np.any(got != a))
    assert raised > CLOSURE_TRIALS // 2


@pytest.mark.parametrize("push_cost,chunk,gather",
                         [(None, None, None), (0, 3, None), (10**9, None, None),
                          (10**9, None, 1), (10**9, None, 3)],
                         ids=["None-None", "0-3", "1000000000-None",
                              "1000000000-gather1", "1000000000-gather3"])
@pytest.mark.filterwarnings("ignore:.*zero rows")
def test_step_with_and_without_mask_equals_full_step(monkeypatch, push_cost, chunk, gather):
    # push_cost 0 forces the scatter (here in chunks of 3 pushes),
    # 10**9 the dense block (here also gathering 1 or 3 neighbours at a time)
    if push_cost is not None:
        monkeypatch.setattr(lsi, "_PUSH_COST", push_cost)
    if chunk is not None:
        monkeypatch.setattr(lsi, "_SCATTER_CHUNK", chunk)
    if gather is not None:
        monkeypatch.setattr(lsi, "_GATHER_ROWS", gather)
    for a, _, _ in _trials():
        s = word_similarity(a)
        prev = a + 0.0
        _assert_same_bytes(completion_step(a, s), completion_step_oracle(prev, s))
        np.testing.assert_array_equal(completion_step(a, s), completion_step_oracle(a, s))
        # pushing every entry, zeros included, is exact too
        _assert_same_bytes(completion_step(a, s, changed=np.ones(a.shape, dtype=bool)),
                           completion_step_oracle(prev, s))
        cur = completion_step_oracle(prev, s)
        _assert_same_bytes(completion_step(cur, s, changed=cur != prev),
                           completion_step_oracle(cur, s))
        idle = completion_step(cur, s, changed=np.zeros(cur.shape, dtype=bool))
        _assert_same_bytes(idle, cur)


def test_few_pushes_over_many_target_rows_take_the_scatter(kernel_calls):
    # one changed entry of a word similar to all 199 others: 199 pushes
    # against 199 candidates, but the dense block would pay 199 target rows
    a = np.ones((200, 2))
    a[:, 1] = 0.0
    a[0, 1] = 2.0
    s = word_similarity(a)
    changed = np.zeros(a.shape, dtype=bool)
    changed[0, 1] = True
    got = completion_step(a, s, changed=changed)
    assert kernel_calls == {"_scatter": 1, "_dense_block": 0}
    _assert_same_bytes(got, completion_step_oracle(a, s))
    assert np.all(got[1:, 1] > 0)


@pytest.mark.parametrize("negative_zero", [False, True])
def test_dense_block_read_in_place_equals_copied_block(monkeypatch, negative_zero):
    # column 0 links every word pair and the last column stays zero; a
    # Fortran-ordered input, or one holding -0.0 entries, is canonicalized
    # before the dense block reads it
    monkeypatch.setattr(lsi, "_PUSH_COST", 10**9)
    rng = np.random.default_rng(41)
    a = rng.random((30, 12))
    a[rng.random(a.shape) < 0.5] = -0.0 if negative_zero else 0.0
    a[:, 0] = a[0] = 1.0
    a[:, -1] = -0.0 if negative_zero else 0.0
    s = word_similarity(a)
    got = completion_step(a, s)
    _assert_same_bytes(got, completion_step(np.asfortranarray(a), s))
    _assert_same_bytes(got, completion_step_oracle(a + 0.0, s))
    assert not np.signbit(got).any()
    # a mask of every third row still takes the dense block, and the full step
    changed = np.zeros(a.shape, dtype=bool)
    changed[::3] = True
    got = completion_step(a, s, changed=changed)
    _assert_same_bytes(got, completion_step(np.asfortranarray(a), s, changed=changed))
    assert not np.signbit(got).any()


@pytest.mark.parametrize("push_cost", [0, 10**9], ids=["scatter", "dense"])
@pytest.mark.filterwarnings("ignore:.*zero rows")
def test_any_mask_covering_the_changes_gives_the_full_step(monkeypatch, push_cost):
    # masks that mark every changed entry plus random unchanged ones, at
    # several densities, over the first steps of each input
    monkeypatch.setattr(lsi, "_PUSH_COST", push_cost)
    rng = np.random.default_rng(DIFF_SEED + 1)
    for a, _, _ in _trials():
        s = word_similarity(a)
        cur, covers = a, a != 0  # the first step: every nonzero entry may push
        for _ in range(3):
            extra = rng.random(cur.shape) < rng.choice([0.0, 0.1, 0.5, 1.0])
            want = completion_step_oracle(cur + 0.0, s)
            _assert_same_bytes(completion_step(cur, s, changed=covers | extra), want)
            cur, covers = want, want != cur


def test_complete_norm_collision_matches_full_step_loop():
    for a in (np.array([[1e9, 0.0], [1e9, 2.0]]),
              np.array([[1e9, 0.0, 3.0], [1e9, 2.0, 0.0], [0.0, 1.0, 1e-3]])):
        got, trace = complete(a)
        want, want_trace = complete_oracle(a, stable_window=1)
        _assert_same_bytes(got, want)
        assert trace == want_trace
        assert trace.norms[1] == trace.norms[0] and trace.changed[0] > 0


def test_complete_zipf_medline_size_equals_full_step_loop(kernel_calls):
    a = zipf_matrix(0)
    assert 1000 <= a.shape[0] <= 1200 and a.shape[1] == 1000
    got, trace = complete(a)
    want, want_trace = complete_oracle(a, stable_window=1)
    _assert_same_bytes(got, want)
    assert trace == want_trace
    assert kernel_calls["_scatter"] > 0 and kernel_calls["_dense_block"] > 0


def test_complete_keeps_less_than_three_copies():
    a = zipf_matrix(0)
    complete(a[:50])  # first-call imports and caches are not the completion's memory
    tracemalloc.start()
    try:
        _, trace = complete(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.converged
    # the iterate and the step's output are two copies, and the scatter's
    # chunks and the similarity matrix measured 0.9 more; a copied dense
    # block, or the norm's square beside two iterates, would add another
    assert peak < 3.1 * a.nbytes, f"peak {peak / a.nbytes:.2f} copies"


@pytest.mark.parametrize("entries", [1, 7])
@pytest.mark.filterwarnings("ignore:.*zero rows")
def test_scatter_in_blocks_of_rows_equals_full_step(monkeypatch, entries):
    # a block takes whole rows: 1 gives one row a block, 7 several rows
    monkeypatch.setattr(lsi, "_PUSH_COST", 0)
    monkeypatch.setattr(lsi, "_SCATTER_ENTRIES", entries)
    for a, _, _ in _trials():
        s = word_similarity(a)
        cur, changed = a + 0.0, None
        for _ in range(3):
            want = completion_step_oracle(cur + 0.0, s)
            _assert_same_bytes(completion_step(cur, s, changed=changed), want)
            cur, changed = want, want != cur


def test_scatter_indexes_changed_entries_a_block_of_rows_at_a_time():
    a = zipf_matrix(0)
    s = word_similarity(a)
    cur, changed = a + 0.0, None
    for _ in range(3):
        nxt = completion_step(cur, s, changed=changed)
        cur, changed = nxt, nxt != cur
    entries = np.count_nonzero(changed, axis=1)
    rows = np.flatnonzero(entries * np.diff(s.matrix.indptr))
    out = cur + 0.0
    lsi._scatter(cur + 0.0, cur, changed, s, rows[:1], entries[rows[:1]])  # warm-up
    tracemalloc.start()
    try:
        lsi._scatter(out, cur, changed, s, rows, entries[rows])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_bytes(out, completion_step_oracle(cur, s))
    # step 4's 84k changed entries took 6.3 MiB when indexed all at once
    assert entries.sum() > 80_000
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_step_rejects_mask_of_wrong_shape():
    s = word_similarity(np.eye(3))
    with pytest.raises(ValueError, match="mask"):
        completion_step(np.eye(3), s, changed=np.ones((3, 2), dtype=bool))


def test_trace_changed_counts_match_full_step_loop():
    for a in (SYNONYMY, POLYSEMY, np.diag([1.0, 2.0, 3.0])):
        _, trace = complete(a)
        _, want = complete_oracle(a, stable_window=1)
        assert trace.changed == want.changed
        assert len(trace.changed) == len(trace.norms) - 1
        assert trace.changed[-1] == 0   # the one idle step that proves the fixpoint
        assert all(c > 0 for c in trace.changed[:-1])


def test_trace_changed_defaults_empty_and_is_checked():
    assert CompletionTrace((1.0, 1.0), 1, True, 0.0).changed == ()
    with pytest.raises(ValueError, match="one changed-entry count"):
        CompletionTrace((1.0, 1.0), 1, True, 0.0, (0, 0))


def test_complete_calls_step_once_per_iteration(monkeypatch):
    calls = []
    inner = lsi.completion_step

    def counted(current, s, *, changed=None):
        out = inner(current, s, changed=changed)
        calls.append(out is current or np.shares_memory(out, current))
        return out

    monkeypatch.setattr(lsi, "completion_step", counted)
    for a in (SYNONYMY, POLYSEMY, np.diag([1.0, 2.0])):
        calls.clear()
        _, trace = complete(a)
        assert len(calls) == len(trace.norms) - 1
        assert not any(calls)
