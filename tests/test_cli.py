"""End-to-end command-line runs on a small synthetic SMART corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsikit
from lsikit.cli import main
from lsikit.matrix import SparseMatrix
from lsikit.mmio import read_matrix, write_matrix

from conftest import SYNONYMY, SYNONYMY_RANK2

DOCS = """.I 1
.W
solar panels convert sunlight into electricity for homes
.I 2
.W
wind turbines generate electricity from moving air
.I 3
.W
electricity grids balance solar and wind generation
.I 4
.W
bread bakers knead dough and bake loaves in ovens
.I 5
.W
sourdough bread needs flour water and patient baking
.I 6
.W
ovens bake the dough until the bread crust browns
"""

QUERIES = """.I 1
.W
solar electricity generation
.I 2
.W
baking bread dough
"""

QRELS = """1 1
1 2
1 3
2 4
2 5
2 6
"""


@pytest.fixture
def corpus_dir(tmp_path):
    (tmp_path / "docs.txt").write_text(DOCS)
    (tmp_path / "queries.txt").write_text(QUERIES)
    (tmp_path / "qrels.txt").write_text(QRELS)
    out = tmp_path / "corpus"
    rc = main(["corpus", "build", "--docs", str(tmp_path / "docs.txt"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    return tmp_path


def test_corpus_build_outputs(corpus_dir):
    out = corpus_dir / "corpus"
    stats = json.loads((out / "stats.json").read_text())
    assert stats["documents"] == 6
    assert stats["words"] > 10
    assert 0 < stats["nnz_percent"] <= 100
    assert "config_hash" in stats
    vocab = (out / "vocabulary.txt").read_text().split()
    assert stats["words"] == len(vocab)
    assert vocab == sorted(vocab)
    assert "the" not in vocab  # stop word
    m = read_matrix(out / "matrix.mtx")
    assert (m.rows, m.cols) == (stats["words"], 6)
    docids = (out / "docids.txt").read_text().split()
    assert docids == ["1", "2", "3", "4", "5", "6"]


def test_corpus_build_is_idempotent(corpus_dir):
    out2 = corpus_dir / "corpus2"
    rc = main(["corpus", "build", "--docs", str(corpus_dir / "docs.txt"),
               "--out", str(out2), "--quiet"])
    assert rc == 0
    for name in ("matrix.mtx", "vocabulary.txt", "docids.txt"):
        assert (corpus_dir / "corpus" / name).read_bytes() == (out2 / name).read_bytes()


def test_corpus_build_missing_file_fails(tmp_path):
    rc = main(["corpus", "build", "--docs", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc != 0
    assert not (tmp_path / "out" / "matrix.mtx").exists()


def test_corpus_build_empty_docs_fails(tmp_path):
    (tmp_path / "docs.txt").write_text("")
    rc = main(["corpus", "build", "--docs", str(tmp_path / "docs.txt"),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc != 0


def test_index_raw_is_byte_identical(corpus_dir):
    out = corpus_dir / "idx_raw"
    rc = main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
               "--method", "raw", "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "index.mtx").read_bytes() == (corpus_dir / "corpus" / "matrix.mtx").read_bytes()
    meta = json.loads((out / "index_meta.json").read_text())
    assert meta["method"] == "raw"
    assert "config_hash" in meta


def test_index_svd_reproduces_published_table(tmp_path):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    out = tmp_path / "idx"
    rc = main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "svd",
               "--rank", "2", "--out", str(out), "--quiet"])
    assert rc == 0
    np.testing.assert_allclose(read_matrix(out / "index.mtx"), SYNONYMY_RANK2, atol=0.05)
    cached = np.load(out / "svd_factors.npz")
    assert cached["values"].shape == (5,)  # full factorization cached
    meta = json.loads((out / "index_meta.json").read_text())
    assert meta["rank"] == 2


def test_index_svd_invalid_rank_fails_cleanly(tmp_path):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    out = tmp_path / "idx"
    with pytest.raises(SystemExit):
        main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "svd",
              "--rank", "9", "--out", str(out), "--quiet"])
    assert not (out / "index.mtx").exists()  # no partial outputs


def test_index_complete_emits_trace(tmp_path):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    out = tmp_path / "idx"
    rc = main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "complete",
               "--out", str(out), "--quiet"])
    assert rc == 0
    trace = json.loads((out / "trace.json").read_text())
    assert set(trace) == {"norms", "conviter", "converged", "ps_percent", "changed"}
    assert len(trace["changed"]) == len(trace["norms"]) - 1
    assert trace["changed"][-1] == 0
    assert trace["converged"] is True
    assert trace["norms"] == sorted(trace["norms"])
    completed = read_matrix(out / "index.mtx")
    assert completed[0, 1] == pytest.approx(4.2933, abs=1e-3)


def test_eval_end_to_end(corpus_dir):
    idx = corpus_dir / "idx"
    main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
          "--method", "complete", "--out", str(idx), "--quiet"])
    out = corpus_dir / "eval"
    rc = main(["eval", "--index", str(idx / "index.mtx"),
               "--queries", str(corpus_dir / "queries.txt"),
               "--qrels", str(corpus_dir / "qrels.txt"),
               "--out", str(out), "--csv", "--quiet"])
    assert rc == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["points"] == 11
    assert len(report["per_query"]) == 2
    assert 0.0 <= report["mean_avgp"] <= 1.0
    assert report["index"]["type"] == "complete"
    # the two topics separate cleanly, so retrieval should be excellent
    assert report["mean_avgp"] > 0.9
    csv_lines = (out / "eval.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "qid,avgp"
    assert len(csv_lines) == 3


def test_eval_against_raw_sparse_index(corpus_dir):
    idx = corpus_dir / "idx_raw_eval"
    main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
          "--method", "raw", "--out", str(idx), "--quiet"])
    out = corpus_dir / "eval_raw"
    rc = main(["eval", "--index", str(idx / "index.mtx"),
               "--queries", str(corpus_dir / "queries.txt"),
               "--qrels", str(corpus_dir / "qrels.txt"),
               "--out", str(out), "--quiet"])
    assert rc == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["index"]["type"] == "raw"
    assert 0.0 <= report["mean_avgp"] <= 1.0


def test_eval_vocabulary_mismatch_names_axis(corpus_dir, tmp_path):
    bad_vocab = tmp_path / "vocab.txt"
    bad_vocab.write_text("alpha\nbeta\n")
    idx = corpus_dir / "idx_raw2"
    main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
          "--method", "raw", "--out", str(idx), "--quiet"])
    with pytest.raises(SystemExit, match="vocabulary axis"):
        main(["eval", "--index", str(idx / "index.mtx"),
              "--queries", str(corpus_dir / "queries.txt"),
              "--qrels", str(corpus_dir / "qrels.txt"),
              "--vocab", str(bad_vocab),
              "--out", str(corpus_dir / "eval_bad"), "--quiet"])


def test_sweep_csv_layout_and_determinism(corpus_dir):
    out = corpus_dir / "sweep"
    args = ["sweep", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
            "--queries", str(corpus_dir / "queries.txt"),
            "--qrels", str(corpus_dir / "qrels.txt"),
            "--ranks", "1:3", "--out", str(out), "--quiet"]
    assert main(args) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,svd,completion,nmf"
    assert len(lines) == 4  # one row per rank
    first = (out / "sweep.csv").read_bytes()
    assert main(args) == 0
    assert (out / "sweep.csv").read_bytes() == first
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["ranks"] == [1, 2, 3]
    assert summary["best_rank"] in (1, 2, 3)


def test_sweep_single_rank(corpus_dir):
    out = corpus_dir / "sweep1"
    rc = main(["sweep", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
               "--queries", str(corpus_dir / "queries.txt"),
               "--qrels", str(corpus_dir / "qrels.txt"),
               "--ranks", "2", "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_cluster_bipartite_svd_on_synonymy(tmp_path):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    ref = tmp_path / "ref.csv"
    ref.write_text("0\n0\n0\n1\n1\n")
    out = tmp_path / "clu"
    rc = main(["cluster", "--matrix", str(tmp_path / "syn.mtx"),
               "--method", "bipartite-svd", "--k", "2",
               "--reference", str(ref), "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "labels.csv").read_text().strip().splitlines()
    assert lines[0] == "item,label"
    labels = [int(l.split(",")[1]) for l in lines[1:]]
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] != labels[0]
    scores = json.loads((out / "scores.json").read_text())
    assert scores["scores"]["purity"] == 1.0
    assert scores["scores"]["fmeasure"] == 1.0
    assert set(scores["scores"]) == {"mi", "entropy", "purity", "fmeasure"}


def test_cluster_spectral_requires_alpha(tmp_path):
    write_matrix(tmp_path / "m.mtx", np.random.default_rng(0).random((2, 8)))
    with pytest.raises(SystemExit, match="alpha"):
        main(["cluster", "--matrix", str(tmp_path / "m.mtx"), "--method", "spectral",
              "--k", "2", "--out", str(tmp_path / "c"), "--quiet"])


def test_cluster_nmf_with_trials(tmp_path):
    a = np.zeros((6, 8))
    a[:3, :4] = 1.0
    a[3:, 4:] = 2.0
    write_matrix(tmp_path / "m.mtx", SparseMatrix.from_dense(a))
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(["0"] * 4 + ["1"] * 4) + "\n")
    out = tmp_path / "c"
    rc = main(["cluster", "--matrix", str(tmp_path / "m.mtx"), "--method", "nmf",
               "--k", "2", "--trials", "5", "--reference", str(ref),
               "--out", str(out), "--quiet"])
    assert rc == 0
    scores = json.loads((out / "scores.json").read_text())
    assert scores["trials"] == 5
    assert scores["scores"]["purity"] > 0.9


def test_cluster_without_reference_writes_labels_only(tmp_path):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    out = tmp_path / "c"
    rc = main(["cluster", "--matrix", str(tmp_path / "syn.mtx"),
               "--method", "bipartite-svd", "--k", "2", "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "labels.csv").exists()
    assert not (out / "scores.json").exists()


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    (tmp_path / "docs.txt").write_text(DOCS)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_length=4\n")
    out1 = tmp_path / "o1"
    main(["corpus", "build", "--docs", str(tmp_path / "docs.txt"),
          "--config", str(cfg), "--out", str(out1), "--quiet"])
    stats1 = json.loads((out1 / "stats.json").read_text())
    assert stats1["min_length"] == 4
    out2 = tmp_path / "o2"
    main(["corpus", "build", "--docs", str(tmp_path / "docs.txt"),
          "--config", str(cfg), "--min-length", "2", "--out", str(out2), "--quiet"])
    stats2 = json.loads((out2 / "stats.json").read_text())
    assert stats2["min_length"] == 2
    assert stats1["config_hash"] != stats2["config_hash"]


def test_importing_cli_leaves_scipy_unloaded():
    # scipy is imported where a sparse kernel first runs, so other commands start faster
    src = str(Path(lsikit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lsikit.cli; print('scipy' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
