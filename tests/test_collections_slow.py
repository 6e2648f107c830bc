"""Opt-in reproduction of the published retrieval results on the large
SMART collections (Medline, Cranfield, CISI).

Deselected by default (see the ``slow`` marker in pyproject.toml).  On
a synthetic collection of Medline's shape (8237 x 1033) the costly steps
took: completion 38.6 s, the full SVD 3.6 s, a 60-rank reconstruct-and-
evaluate sweep 9.8 s and the rank-60 NMF 5.8 s with its A-products on
CSR, about two minutes per collection (2-vCPU Xeon, numpy 2.4.6,
OpenBLAS 0.3.31); the real collections were not run.  The SVD sweep
builds each rank's matrix with ``rank_k_reconstruct(full, k)``, the
function ``lsikit sweep`` and ``lsikit index --method svd`` use.  Run
with ``pytest -m slow`` after placing <NAME>.ALL/.QRY/.REL files under
the data directory (or $SMART_DATA_DIR).
"""

import pytest

from lsikit.corpus import (
    TokenizerConfig,
    build_matrix,
    build_query_matrix,
    default_stoplist,
    log_scale,
    parse_qrels,
    parse_smart,
)
from lsikit.lsi import complete
from lsikit.matrix import rank_k_reconstruct, truncated_svd
from lsikit.retrieval import evaluate

from conftest import find_collection

# collection name -> (published completion mean, published best svd mean,
#                     svd ranks to sweep)
PUBLISHED = {
    "MED": (0.4888, 0.4967, range(10, 601, 10)),
    "CRAN": (0.3537, 0.3365, range(10, 601, 10)),
    "CISI": (0.1559, 0.1617, range(10, 601, 10)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_average_precision(name):
    paths = find_collection(name)
    if paths is None:
        pytest.skip(f"{name} collection not present under the data directory")
    completion_ref, svd_ref, ranks = PUBLISHED[name]

    config = TokenizerConfig(default_stoplist(), 2)
    docs = parse_smart(paths["docs"].read_text(errors="replace"), ("W",))
    tdm = log_scale(build_matrix(docs, config))
    queries = parse_smart(paths["queries"].read_text(errors="replace"), ("W",))
    qmatrix = build_query_matrix(queries, tdm.vocabulary, config)
    judgments = parse_qrels(paths["qrels"].read_text())
    qids = [q.id for q in queries]
    doc_ids = list(tdm.doc_ids)

    completed, trace = complete(tdm.matrix)
    assert trace.converged
    completion_mean = evaluate(qmatrix, completed, judgments, 11,
                               query_ids=qids, doc_ids=doc_ids).mean_avgp
    assert completion_mean == pytest.approx(completion_ref, abs=0.05)

    dense = tdm.matrix.toarray()
    max_rank = min(dense.shape)
    full = truncated_svd(dense, max_rank)
    best = 0.0
    for k in ranks:
        if k > max_rank:
            break
        mean = evaluate(qmatrix, rank_k_reconstruct(full, k), judgments, 11,
                        query_ids=qids, doc_ids=doc_ids).mean_avgp
        best = max(best, mean)
    assert best == pytest.approx(svd_ref, abs=0.05)
