"""Acceptance gate: every criterion asserted at its stated tolerance,
one printed PASS/FAIL line per criterion (run with ``pytest -s`` to see
the lines for passing criteria)."""

import time
import warnings
from pathlib import Path

import numpy as np
import test_properties
from lsikit.cluster import (
    bipartite_svd_cluster,
    eval_clustering,
    label_accuracy,
    spectral_cluster,
    two_rings,
)
from lsikit.corpus import (
    TokenizerConfig,
    build_matrix,
    build_query_matrix,
    default_stoplist,
    log_scale,
    parse_qrels,
    parse_smart,
)
from lsikit.graphs import KernelSpec
from lsikit.lsi import complete, perfect_pair_percentage, word_similarity
from lsikit.matrix import SparseMatrix, rank_k_reconstruct, truncated_svd
from lsikit.retrieval import evaluate, score_query

from conftest import (
    POLYSEMY,
    POLYSEMY_COMPLETED,
    POLYSEMY_RANK2,
    QUERY_BANK_MONEY_SCORES,
    QUERY_MARK_TWAIN_SCORES,
    QUERY_RIVER_BANK_SCORES,
    SYNONYMY,
    SYNONYMY_COMPLETED,
    SYNONYMY_COMPLETED_TOL,
    SYNONYMY_RANK2,
    find_collection,
    smart_data_dir,
)


def _report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_synonymy_rank2_golden():
    start = time.perf_counter()
    recon = rank_k_reconstruct(truncated_svd(SparseMatrix.from_dense(SYNONYMY), 2))
    elapsed = time.perf_counter() - start
    worst = float(np.abs(recon - SYNONYMY_RANK2).max())
    _report(1, worst <= 0.05 and elapsed < 1.0,
            f"max deviation {worst:.4f}, {elapsed:.3f}s")


def test_criterion_2_polysemy_rank2_golden():
    start = time.perf_counter()
    recon = rank_k_reconstruct(truncated_svd(SparseMatrix.from_dense(POLYSEMY), 2))
    elapsed = time.perf_counter() - start
    worst = float(np.abs(recon - POLYSEMY_RANK2).max())
    _report(2, worst <= 0.005 and elapsed < 1.0,
            f"max deviation {worst:.5f}, {elapsed:.3f}s")


def test_criterion_3_completion_goldens():
    start = time.perf_counter()
    syn, syn_trace = complete(SparseMatrix.from_dense(SYNONYMY))
    poly, poly_trace = complete(SparseMatrix.from_dense(POLYSEMY))
    elapsed = time.perf_counter() - start
    syn_ok = bool(np.all(np.abs(syn - SYNONYMY_COMPLETED) <= SYNONYMY_COMPLETED_TOL))
    poly_ok = float(np.abs(poly - POLYSEMY_COMPLETED).max()) <= 0.005
    bank_ok = bool(np.all(poly[3] == 1.0))
    ok = (syn_ok and poly_ok and bank_ok and syn_trace.converged
          and poly_trace.converged and elapsed < 1.0)
    _report(3, ok, f"synonymy {syn_ok}, polysemy {poly_ok}, unit bank row {bank_ok}, "
                   f"{elapsed:.3f}s")


def test_criterion_4_query_score_goldens():
    recon = rank_k_reconstruct(truncated_svd(SparseMatrix.from_dense(POLYSEMY), 2))

    def scores(q, index, n):
        out = np.zeros(n)
        for doc, s in score_query(q, index):
            out[doc] = s
        return out

    d1 = np.abs(scores(np.array([1.0, 1, 0, 0, 0, 0]), SYNONYMY, 5)
                - QUERY_MARK_TWAIN_SCORES).max()
    d2 = np.abs(scores(np.array([1.0, 0, 0, 1, 0]), recon, 6)
                - QUERY_BANK_MONEY_SCORES).max()
    d3 = np.abs(scores(np.array([0.0, 0, 1, 1, 0]), recon, 6)
                - QUERY_RIVER_BANK_SCORES).max()
    worst = max(float(d1), float(d2), float(d3))
    _report(4, worst <= 0.005, f"max deviation {worst:.5f}")


def test_criterion_5_adi_end_to_end():
    paths = find_collection("ADI")
    if paths is None:
        _report(
            5,
            False,
            "ADI collection not found: place ADI.ALL, ADI.QRY and ADI.REL under "
            f"{smart_data_dir()} (or set SMART_DATA_DIR); this sandbox has no "
            "network access to fetch them",
        )
    start = time.perf_counter()
    config = TokenizerConfig(default_stoplist(), 2)
    docs = parse_smart(paths["docs"].read_text(errors="replace"), ("W",))
    tdm = log_scale(build_matrix(docs, config))
    words = tdm.matrix.rows
    words_ok = abs(words - 1215) <= 0.05 * 1215
    nnz_ok = abs(tdm.nnz_percent - 2.15) <= 0.20 * 2.15

    sim = word_similarity(tdm.matrix)
    ps = perfect_pair_percentage(sim)
    ps_ok = abs(ps - 0.631) <= 0.15

    completed, trace = complete(tdm.matrix)
    conviter_ok = trace.converged and trace.conviter <= 7

    queries = parse_smart(paths["queries"].read_text(errors="replace"), ("W",))
    qmatrix = build_query_matrix(queries, tdm.vocabulary, config)
    judgments = parse_qrels(paths["qrels"].read_text())
    qids = [q.id for q in queries]

    completion_mean = evaluate(qmatrix, completed, judgments, 11,
                               query_ids=qids, doc_ids=list(tdm.doc_ids)).mean_avgp
    completion_ok = abs(completion_mean - 0.3185) <= 0.05

    dense = tdm.matrix.toarray()
    full = truncated_svd(dense, min(dense.shape))
    means = []
    for k in range(1, 41):
        means.append(evaluate(qmatrix, rank_k_reconstruct(full, k), judgments, 11,
                              query_ids=qids, doc_ids=list(tdm.doc_ids)).mean_avgp)
    best_rank = int(np.argmax(means)) + 1
    best = means[best_rank - 1]
    svd_ok = abs(best - 0.2663) <= 0.05 and 25 <= best_rank <= 40

    elapsed = time.perf_counter() - start
    ok = (words_ok and nnz_ok and ps_ok and conviter_ok and completion_ok
          and svd_ok and elapsed < 120.0)
    _report(5, ok,
            f"words {words}, %NNZ {tdm.nnz_percent:.3f}, %PS {ps:.3f}, "
            f"conviter {trace.conviter}, completion {completion_mean:.4f}, "
            f"svd best {best:.4f} at rank {best_rank}, {elapsed:.1f}s")


def test_criterion_6_large_collections_are_opt_in():
    slow_suite = Path(__file__).parent / "test_collections_slow.py"
    marked = slow_suite.exists() and "pytest.mark.slow" in slow_suite.read_text()
    deselected = "not slow" in (Path(__file__).parent.parent / "pyproject.toml").read_text()
    _report(6, marked and deselected,
            "Medline/Cranfield/CISI reproduction lives in the slow suite, "
            "deselected by default")


def test_criterion_7_property_suites():
    suites = (
        test_properties.test_best_rank_approximation_dominates_random_competitors,
        test_properties.test_trace_maximum_of_symmetric_matrices,
        test_properties.test_trace_maximum_of_rectangular_matrices,
        test_properties.test_residual_identity_and_orthonormality,
        test_properties.test_completion_monotone_and_bounded,
        test_properties.test_completion_fixpoint_idempotent_and_deterministic,
        test_properties.test_completion_matches_chain_enumeration,
    )
    failed = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*zero rows.*")
        for suite in suites:
            try:
                suite()
            except AssertionError:
                failed.append(suite.__name__)
    _report(7, not failed,
            f"{len(suites) - len(failed)}/{len(suites)} randomized suites clean"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_8_clustering_benchmarks():
    points, reference = two_rings(100, radii=(1.0, 5.0))
    ring_best = 0.0
    ring_alpha = None
    for alpha in (0.05, 0.1, 0.2):
        run = spectral_cluster(points, 2, KernelSpec("gaussian", alpha=alpha), seed=0)
        acc = label_accuracy(run.labels, reference)
        if acc > ring_best:
            ring_best, ring_alpha = acc, alpha
        if acc >= 0.95:
            break
    rings_ok = ring_best >= 0.95

    blocks = np.zeros((5, 6))
    blocks[:3, :3] = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2.0]])
    blocks[3:, 3:] = np.array([[3, 1, 2], [1, 3, 1.0]])
    run = bipartite_svd_cluster(blocks, 2, seed=0)
    block_ok = label_accuracy(run.labels, np.array([0, 0, 0, 1, 1, 1])) == 1.0

    ident = np.array([0, 0, 1, 1, 2])
    perfect = eval_clustering(ident, ident)
    relabeled = eval_clustering(np.array([2, 2, 0, 0, 1]), ident)
    metrics_ok = (
        perfect.purity == 1.0
        and perfect.entropy == 0.0
        and perfect.f_measure == 1.0
        and relabeled.purity == 1.0
        and abs(relabeled.mutual_information - perfect.mutual_information) < 1e-12
    )

    _report(8, rings_ok and block_ok and metrics_ok,
            f"rings {ring_best:.3f} at alpha {ring_alpha}, exact blocks {block_ok}, "
            f"metric sanity {metrics_ok}")
