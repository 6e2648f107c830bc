"""End-to-end command-line runs on a small synthetic SMART corpus."""

import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lsikit
from lsikit import cli
from lsikit import cluster as cluster_mod
from lsikit.cli import main
from lsikit.matrix import SparseMatrix, rank_k_reconstruct, truncated_svd
from lsikit.mmio import read_matrix, read_shape, write_matrix

from conftest import SYNONYMY, SYNONYMY_RANK2
from oracle_utils import zipf_matrix

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


@pytest.mark.parametrize("stoplist", [None, "", "custom"], ids=["builtin", "none", "custom"])
def test_corpus_build_writes_the_stop_words_it_used(corpus_dir, monkeypatch, stoplist):
    build, used = cli.corpus_mod.build_matrix, []
    monkeypatch.setattr(cli.corpus_mod, "build_matrix",
                        lambda docs, config: used.append(config.stoplist) or build(docs, config))
    (corpus_dir / "stop.txt").write_text("# custom list\n  Solar\n\nbread\nthe\n")
    flag = [] if stoplist is None else ["--stoplist", stoplist and str(corpus_dir / "stop.txt")]
    out = corpus_dir / "built"
    assert main(["corpus", "build", "--docs", str(corpus_dir / "docs.txt"), *flag,
                 "--out", str(out), "--quiet"]) == 0
    [words] = used
    assert words == {None: cli.corpus_mod.default_stoplist(), "": frozenset(),
                     "custom": {"solar", "bread", "the"}}[stoplist]
    text = (out / "stoplist.txt").read_text()
    assert text == "".join(f"{word}\n" for word in sorted(words))
    assert cli.corpus_mod.load_stoplist(out / "stoplist.txt") == words


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


@pytest.mark.parametrize("min_length", ["0", "-1"])
def test_corpus_built_below_min_length_one_evaluates(corpus_dir, min_length):
    # every text starts with a separator, which split off an empty term
    # that vocabulary.txt could not hold, so index and eval stopped
    (corpus_dir / "docs1.txt").write_text(DOCS.replace(".W\n", ".W\n1 "))
    built = {}
    for length in (min_length, "1"):
        built[length] = corpus_dir / f"corpus{length}"
        assert main(["corpus", "build", "--docs", str(corpus_dir / "docs1.txt"),
                     "--min-length", length, "--out", str(built[length]), "--quiet"]) == 0
    for name in ("matrix.mtx", "vocabulary.txt"):
        assert (built[min_length] / name).read_bytes() == (built["1"] / name).read_bytes()
    idx = corpus_dir / "idx"
    assert main(["index", "--matrix", str(built[min_length] / "matrix.mtx"),
                 "--method", "raw", "--out", str(idx), "--quiet"]) == 0
    assert main(["eval", "--index", str(idx / "index.mtx"),
                 "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"),
                 "--out", str(corpus_dir / "eval"), "--quiet"]) == 0
    report = json.loads((corpus_dir / "eval" / "eval.json").read_text())
    assert len(report["per_query"]) == 2


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


def test_index_svd_invalid_rank_fails_cleanly(tmp_path, monkeypatch):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    monkeypatch.setattr(cli.mmio, "read_matrix", None)  # the rank is checked from the header
    out = tmp_path / "idx"
    for rank, problem in (([], "svd method requires --rank"),
                          (["--rank", "0"], "invalid rank 0: must lie in [1, 5]"),
                          (["--rank", "9"], "invalid rank 9: must lie in [1, 5]")):
        with pytest.raises(SystemExit, match=re.escape(problem)):
            main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "svd",
                  *rank, "--out", str(out), "--quiet"])
        assert not out.exists()  # no partial outputs


def test_svd_index_is_the_library_rank_k_matrix(corpus_dir):
    _index(corpus_dir, corpus_dir / "idx", "svd")
    matrix = corpus_dir / "corpus" / "matrix.mtx"
    want = rank_k_reconstruct(truncated_svd(read_matrix(matrix), min(read_shape(matrix))), 2)
    assert np.load(corpus_dir / "idx" / "index.npy").tobytes(order="C") == want.tobytes()


def test_sweep_and_svd_index_build_rank_k_matrices_through_one_function(corpus_dir, monkeypatch):
    ks = []

    def spy(f, k=None):
        ks.append(k)
        return rank_k_reconstruct(f, k)

    monkeypatch.setattr(cli, "rank_k_reconstruct", spy)
    assert main(["sweep", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
                 "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"),
                 "--ranks", "1:3", "--out", str(corpus_dir / "sweep"), "--quiet"]) == 0
    assert ks == [1, 2, 3]
    ks.clear()
    _index(corpus_dir, corpus_dir / "idx", "svd")
    assert ks == [2]


def test_failure_after_staging_leaves_no_outputs(tmp_path, monkeypatch):
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))

    def disk_full(path, *args, **kwargs):
        Path(path).write_bytes(b"%%MatrixMarket")
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.mmio, "write_matrix", disk_full)  # after index.npy is staged
    out = tmp_path / "idx"
    assert main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "complete",
                 "--out", str(out), "--quiet"]) == 1
    assert list(out.iterdir()) == []


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


def test_index_complete_writes_from_one_copy_of_the_completion(tmp_path):
    a = zipf_matrix(0)
    write_matrix(tmp_path / "m.mtx", SparseMatrix.from_dense(a))
    argv = ["index", "--matrix", str(tmp_path / "m.mtx"), "--method", "complete", "--quiet"]
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0  # imports and caches
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "idx")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the completion peaks at 2.9 copies of the matrix; writing both files
    # from one Fortran-ordered copy takes 2.2, and each more copy alive
    # while they are written (the C-ordered result, a transposed body)
    # would add one
    assert peak < 3.1 * a.nbytes, f"peak {peak / a.nbytes:.2f} copies"
    for name in ("index.mtx", "index.npy"):
        assert (tmp_path / "idx" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


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


@pytest.mark.parametrize("method", ["raw", "svd", "complete"])
def test_index_rejects_a_vocabulary_of_another_size(corpus_dir, tmp_path, method):
    bad_vocab = tmp_path / "vocab.txt"
    bad_vocab.write_text("alpha\nbeta\n")
    idx = corpus_dir / "idx_bad"
    rank = ["--rank", "2"] if method == "svd" else []
    with pytest.raises(SystemExit, match="vocabulary axis mismatch: index has .* rows, "
                                         "vocabulary has 2 terms"):
        main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
              "--method", method, *rank, "--vocab", str(bad_vocab),
              "--out", str(idx), "--quiet"])
    assert not idx.exists()


@pytest.fixture
def eval_spy(monkeypatch):
    """Counts ``mmio.read_matrix`` calls and keeps the arrays ``evaluate`` ranks."""
    seen = {"reads": 0, "index": []}
    read, evaluate = cli.mmio.read_matrix, cli.retrieval_mod.evaluate

    def counted_read(path):
        seen["reads"] += 1
        return read(path)

    def kept_evaluate(queries, index, *args, **kwargs):
        seen["index"].append(index)
        return evaluate(queries, index, *args, **kwargs)

    monkeypatch.setattr(cli.mmio, "read_matrix", counted_read)
    monkeypatch.setattr(cli.retrieval_mod, "evaluate", kept_evaluate)
    return seen


def _index(corpus_dir, out, method):
    rank = ["--rank", "2"] if method == "svd" else []
    assert main(["index", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
                 "--method", method, *rank, "--out", str(out), "--quiet"]) == 0


def _eval_outputs(corpus_dir, idx, out, spy, *extra):
    """eval.json and eval.csv bytes, the read count and the array ranked."""
    spy["reads"], spy["index"] = 0, []
    assert main(["eval", "--index", str(idx / "index.mtx"),
                 "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"), *extra,
                 "--out", str(out), "--csv", "--quiet"]) == 0
    [ranked] = spy["index"]
    files = tuple((out / name).read_bytes() for name in ("eval.json", "eval.csv"))
    return files, spy["reads"], ranked


def _assert_same_array(got, want):
    # same bytes and same layout: the layout sets the last bits of row @ a
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


@pytest.mark.parametrize("method", ["svd", "complete"])
def test_eval_binary_index_matches_text_parse(corpus_dir, eval_spy, method):
    idx = corpus_dir / f"idx_{method}"
    _index(corpus_dir, idx, method)
    meta = json.loads((idx / "index_meta.json").read_text())
    for name, key in (("index.mtx", "index_sha256"), ("index.npy", "array_sha256")):
        assert meta[key] == hashlib.sha256((idx / name).read_bytes()).hexdigest()
    binary, reads, loaded = _eval_outputs(corpus_dir, idx, corpus_dir / "e_npy", eval_spy)
    assert reads == 0  # the verified sidecar skips the text parse
    (idx / "index.npy").unlink()
    text, reads, parsed = _eval_outputs(corpus_dir, idx, corpus_dir / "e_mtx", eval_spy)
    assert reads == 1
    assert binary == text
    _assert_same_array(loaded, parsed)


def _edit_mtx(idx):
    lines = (idx / "index.mtx").read_text().splitlines(keepends=True)
    lines[2] = "0.5\n"  # first entry of the array body
    (idx / "index.mtx").write_text("".join(lines))


def _replace_npy(idx):
    np.save(idx / "index.npy", 2.0 * np.load(idx / "index.npy"), allow_pickle=False)


def _truncate_npy(idx):
    blob = (idx / "index.npy").read_bytes()
    (idx / "index.npy").write_bytes(blob[: len(blob) // 2])


def _drop_digests(idx):
    meta = json.loads((idx / "index_meta.json").read_text())
    del meta["index_sha256"], meta["array_sha256"]
    (idx / "index_meta.json").write_text(json.dumps(meta))


def _raw_over_complete(idx):
    earlier = (idx / "index.npy").read_bytes()
    _index(idx.parent, idx, "raw")  # removes the complete index's index.npy
    (idx / "index.npy").write_bytes(earlier)


@pytest.mark.parametrize("spoil", [_edit_mtx, _replace_npy, _truncate_npy, _drop_digests,
                                   _raw_over_complete])
def test_eval_falls_back_to_text_unless_digests_match(corpus_dir, eval_spy, spoil):
    idx = corpus_dir / "idx"
    _index(corpus_dir, idx, "complete")
    spoil(idx)
    assert (idx / "index.npy").exists()
    got, reads, ranked = _eval_outputs(corpus_dir, idx, corpus_dir / "e_spoilt", eval_spy)
    assert reads == 1
    (idx / "index.npy").unlink()
    want, _, parsed = _eval_outputs(corpus_dir, idx, corpus_dir / "e_text", eval_spy)
    assert got == want
    _assert_same_array(ranked, parsed)


def test_index_copies_the_corpus_files_and_records_no_paths(corpus_dir, tmp_path):
    corpus, idx = corpus_dir / "corpus", corpus_dir / "idx"
    (tmp_path / "vocab.txt").write_text((corpus / "vocabulary.txt").read_text())
    assert main(["index", "--matrix", str(corpus / "matrix.mtx"), "--method", "complete",
                 "--vocab", str(tmp_path / "vocab.txt"), "--out", str(idx), "--quiet"]) == 0
    for name in ("docids.txt", "stats.json", "stoplist.txt"):
        assert (idx / name).read_bytes() == (corpus / name).read_bytes(), name
    assert (idx / "vocabulary.txt").read_bytes() == (tmp_path / "vocab.txt").read_bytes()
    meta = json.loads((idx / "index_meta.json").read_text())
    assert not {"vocabulary", "docids", "corpus"} & set(meta)
    # an index of a bare matrix leaves no corpus files of the earlier one behind
    write_matrix(tmp_path / "syn.mtx", SparseMatrix.from_dense(SYNONYMY))
    assert main(["index", "--matrix", str(tmp_path / "syn.mtx"), "--method", "raw",
                 "--out", str(idx), "--quiet"]) == 0
    assert sorted(p.name for p in idx.iterdir()) == ["index.mtx", "index_meta.json"]


def test_eval_of_a_directory_without_stoplist_names_the_missing_file(corpus_dir, capsys):
    _index(corpus_dir, corpus_dir / "idx", "raw")
    (corpus_dir / "idx" / "stoplist.txt").unlink()  # as written before stoplist.txt existed
    assert main(["eval", "--index", str(corpus_dir / "idx" / "index.mtx"),
                 "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"),
                 "--out", str(corpus_dir / "e"), "--quiet"]) == 1
    assert str(corpus_dir / "idx" / "stoplist.txt") in capsys.readouterr().err
    assert not (corpus_dir / "e" / "eval.json").exists()


@pytest.mark.parametrize("method", ["svd", "complete"])
def test_index_removes_files_of_an_earlier_method(corpus_dir, method):
    idx = corpus_dir / "idx"
    _index(corpus_dir, idx, method)
    _index(corpus_dir, idx, "raw")
    assert sorted(p.name for p in idx.iterdir()) == [
        "docids.txt", "index.mtx", "index_meta.json", "stats.json", "stoplist.txt",
        "vocabulary.txt"]


def test_sweep_reads_its_matrix_once(corpus_dir, eval_spy):
    assert main(["sweep", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
                 "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"),
                 "--ranks", "1:2", "--out", str(corpus_dir / "sweep"), "--quiet"]) == 0
    assert eval_spy["reads"] == 1


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


def _child_env():
    """The environment of a fresh interpreter that imports this lsikit."""
    src = str(Path(lsikit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("ranks, problem", [
    ("0", "invalid rank list '0': rank 0 is below 1"),
    ("1:{over}", "rank {over} exceeds min(M, N) = {limit}"),
    ("5:3", "invalid rank list '5:3': range 5:3 is empty"),
    ("1:1000000000000", "rank 1000000000000 exceeds min(M, N) = {limit}"),
], ids=["zero", "above-min-shape", "empty-range", "huge-range"])
def test_sweep_rejects_a_rank_list_before_expanding_it(corpus_dir, ranks, problem):
    limit = min(read_shape(corpus_dir / "corpus" / "matrix.mtx"))
    ranks, problem = (text.format(over=limit + 1, limit=limit) for text in (ranks, problem))
    env = _child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"  # an import footprint that does not grow with the cores
    out = corpus_dir / "sweep"
    done = subprocess.run(
        [sys.executable, "-m", "lsikit.cli", "sweep", "--matrix", "corpus/matrix.mtx",
         "--queries", "queries.txt", "--qrels", "qrels.txt", "--ranks", ranks, "--out", str(out)],
        cwd=corpus_dir, env=env, capture_output=True, text=True, timeout=120,
        # a parser that expanded the huge range would stop here, not exhaust memory
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert done.returncode == 1
    assert problem in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, problem", [
    (["--nmf-rank", "0"], "invalid --nmf-rank 0: must lie in [1, {limit}]"),
    (["--nmf-rank", "{over}"], "invalid --nmf-rank {over}: must lie in [1, {limit}]"),
    (["--nmf-iterations", "0"], "invalid --nmf-iterations 0: must be at least 1"),
    (["--nmf-iterations", "-3"], "invalid --nmf-iterations -3: must be at least 1"),
], ids=["rank-zero", "rank-above-min-shape", "iterations-zero", "iterations-negative"])
def test_sweep_rejects_nmf_flags_before_reading_the_matrix(corpus_dir, monkeypatch, flags, problem):
    limit = min(read_shape(corpus_dir / "corpus" / "matrix.mtx"))
    flags = [flag.format(over=limit + 1) for flag in flags]

    def never(*args, **kwargs):
        raise AssertionError("sweep read the matrix or ran the SVD before checking its flags")

    monkeypatch.setattr(cli, "truncated_svd", never)
    monkeypatch.setattr(cli.mmio, "read_matrix", never)
    out = corpus_dir / "sweep"
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
              "--queries", str(corpus_dir / "queries.txt"),
              "--qrels", str(corpus_dir / "qrels.txt"),
              "--ranks", "1:2", *flags, "--out", str(out), "--quiet"])
    assert str(stop.value) == problem.format(over=limit + 1, limit=limit)
    assert not out.exists()


@pytest.mark.parametrize("maxiter", ["0", "-2"])
@pytest.mark.parametrize("command", ["index", "sweep"])
def test_maxiter_below_one_is_rejected_before_reading_the_matrix(corpus_dir, monkeypatch,
                                                                 command, maxiter):
    def never(*args, **kwargs):
        raise AssertionError(f"{command} read the matrix before checking --maxiter")

    monkeypatch.setattr(cli, "truncated_svd", never)
    monkeypatch.setattr(cli.mmio, "read_matrix", never)
    argv = {"index": ["--method", "complete"],
            "sweep": ["--queries", str(corpus_dir / "queries.txt"),
                      "--qrels", str(corpus_dir / "qrels.txt"), "--ranks", "1:2"]}[command]
    out = corpus_dir / command
    with pytest.raises(SystemExit) as stop:
        main([command, "--matrix", str(corpus_dir / "corpus" / "matrix.mtx"), *argv,
              "--maxiter", maxiter, "--out", str(out), "--quiet"])
    assert str(stop.value) == f"invalid --maxiter {maxiter}: must be at least 1"
    assert not out.exists()


@pytest.mark.parametrize("points", ["1", "0", "-4"])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_points_below_two_are_rejected_before_reading_the_matrix(corpus_dir, monkeypatch,
                                                                command, points):
    _index(corpus_dir, corpus_dir / "idx", "complete")

    def never(*args, **kwargs):
        raise AssertionError(f"{command} read the matrix before checking --points")

    monkeypatch.setattr(cli, "truncated_svd", never)
    monkeypatch.setattr(cli.mmio, "read_matrix", never)
    monkeypatch.setattr(cli, "_sha256", never)  # the binary index is hashed before it is read
    source = {"eval": ["--index", str(corpus_dir / "idx" / "index.mtx")],
              "sweep": ["--matrix", str(corpus_dir / "corpus" / "matrix.mtx"),
                        "--ranks", "1:2"]}[command]
    out = corpus_dir / command
    with pytest.raises(SystemExit) as stop:
        main([command, *source, "--queries", str(corpus_dir / "queries.txt"),
              "--qrels", str(corpus_dir / "qrels.txt"), "--points", points,
              "--out", str(out), "--quiet"])
    assert str(stop.value) == f"invalid --points {points}: must be at least 2"
    assert not out.exists()


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


def test_cluster_kernel_flags_set_to_zero_reach_the_kernel(tmp_path, capsys):
    write_matrix(tmp_path / "m.mtx", np.random.default_rng(0).random((2, 8)))
    run = ["cluster", "--matrix", str(tmp_path / "m.mtx"), "--method", "spectral",
           "--kernel", "polynomial", "--k", "2", "--quiet"]
    # --d 0 used to run as degree 1
    assert main([*run, "--d", "0", "--out", str(tmp_path / "d0")]) == 1
    assert "polynomial kernel requires integer degree d >= 1" in capsys.readouterr().err
    assert not (tmp_path / "d0").exists()
    # an unset flag still takes the kernel's default
    assert main([*run, "--out", str(tmp_path / "unset")]) == 0
    assert main([*run, "--d", "1", "--out", str(tmp_path / "d1")]) == 0
    assert ((tmp_path / "unset" / "labels.csv").read_bytes()
            == (tmp_path / "d1" / "labels.csv").read_bytes())


def test_cluster_nmf_with_trials(tmp_path, monkeypatch):
    a = np.zeros((6, 8))
    a[:3, :4] = 1.0
    a[3:, 4:] = 2.0
    write_matrix(tmp_path / "m.mtx", SparseMatrix.from_dense(a))
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(["0"] * 4 + ["1"] * 4) + "\n")
    out = tmp_path / "c"
    factorize, calls = cluster_mod.nmf_factorize, []
    monkeypatch.setattr(cluster_mod, "nmf_factorize",
                        lambda *args: calls.append(args[3]) or factorize(*args))
    rc = main(["cluster", "--matrix", str(tmp_path / "m.mtx"), "--method", "nmf",
               "--k", "2", "--trials", "5", "--reference", str(ref),
               "--out", str(out), "--quiet"])
    assert rc == 0
    assert calls == [0, 1, 2, 3, 4]  # one factorization per trial, seeds seed + t
    monkeypatch.undo()
    scores = json.loads((out / "scores.json").read_text())
    assert scores["trials"] == 5
    assert scores["scores"]["purity"] > 0.9
    # the best trial's labels and the mean over all trials, as the library gives them
    labels = [int(line.split(",")[1]) for line in (out / "labels.csv").read_text().split()[1:]]
    assert labels == cluster_mod.nmf_cluster(a, 2, 0, trials=5).labels.tolist()
    want = cluster_mod.nmf_trial_scores(a, [0] * 4 + [1] * 4, 2, 0, 5)
    assert scores["scores"] == {"mi": want.mutual_information, "entropy": want.entropy,
                                "purity": want.purity, "fmeasure": want.f_measure}


def test_nmf_commands_never_densify_the_matrix(corpus_dir, monkeypatch):
    densified, factorized, in_nmf = [], [], []
    toarray, factorize = SparseMatrix.toarray, cluster_mod.nmf_factorize

    def spy_toarray(self):
        densified.append(bool(in_nmf))
        return toarray(self)

    def spy_factorize(a, *args):
        factorized.append(type(a))
        in_nmf.append(True)
        try:
            return factorize(a, *args)
        finally:
            in_nmf.pop()

    monkeypatch.setattr(SparseMatrix, "toarray", spy_toarray)
    monkeypatch.setattr(cluster_mod, "nmf_factorize", spy_factorize)
    monkeypatch.setattr(cli, "nmf_factorize", spy_factorize)
    matrix = str(corpus_dir / "corpus" / "matrix.mtx")
    assert main(["cluster", "--matrix", matrix, "--method", "nmf", "--k", "2",
                 "--trials", "2", "--out", str(corpus_dir / "c"), "--quiet"]) == 0
    assert factorized == [SparseMatrix] * 2 and densified == []
    assert main(["sweep", "--matrix", matrix, "--queries", str(corpus_dir / "queries.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"), "--ranks", "1:2",
                 "--out", str(corpus_dir / "s"), "--quiet"]) == 0
    # the SVD densifies the matrix; the NMF baseline gets it sparse
    assert factorized == [SparseMatrix] * 3 and True not in densified


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
    for flag in (["--min-len", "2"], ["--min-len=2"], ["--min-length=2"]):  # abbreviated too
        out3 = tmp_path / "o3"
        main(["corpus", "build", "--docs", str(tmp_path / "docs.txt"),
              "--config", str(cfg), *flag, "--out", str(out3), "--quiet"])
        assert (out3 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()


def _leaf_parsers(parser=None, words=()):
    """(command words, parser) of every subcommand of ``build_parser()``."""
    parser = parser or cli.build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(words), parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, (*words, name))


def _required_argv(parser):
    argv = []
    for action in parser._actions:
        if action.required:
            value = action.choices[0] if action.choices else "2" if action.type else "x"
            argv += [action.option_strings[0], value]
    return argv


def _parsed(argv):
    ns = vars(cli._parse_args(argv))
    del ns["parser_ref"], ns["config"]  # a new parser per call; the config path itself
    return ns


def test_config_values_parse_like_their_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    checked = set()
    for words, parser in _leaf_parsers():
        base = words + _required_argv(parser)
        default = _parsed(base)
        for action in parser._actions:
            if not action.option_strings or action.required or action.dest == "help":
                continue
            if action.nargs == 0:  # on/off flags take a true/false word
                flag, value = [action.option_strings[0]], str(action.const).lower()
            elif action.type is not None:
                flag, value = [action.option_strings[0], "7"], "7"
            else:
                continue
            cfg.write_text(f"{action.dest}={value}\n")
            from_config = _parsed(base + ["--config", str(cfg)])
            assert from_config == _parsed(base + flag), (words, action.dest)
            assert from_config[action.dest] != default[action.dest], (words, action.dest)
            checked.add((words[-1], action.dest))
    assert {("index", "rank"), ("cluster", "alpha"), ("eval", "min_length"),
            ("sweep", "min_length"), ("eval", "log_scale_queries"),
            ("build", "log_scale"), ("eval", "csv")} <= checked


def test_config_hash_covers_every_option_but_out_quiet_config(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    for words, parser in _leaf_parsers():
        base = words + _required_argv(parser)
        args = cli._parse_args(base)
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            opt = action.option_strings[0]
            if action.nargs == 0:
                extra = [opt]
            elif action.dest == "config":
                extra = [opt, str(cfg)]
            elif action.choices:
                extra = [opt, next(c for c in action.choices if c != getattr(args, action.dest))]
            else:
                extra = [opt, "7" if action.type else "other"]
            changed = cli._config_hash(cli._parse_args(base + extra)) != cli._config_hash(args)
            assert changed == (action.dest not in ("out", "quiet", "config")), (words, opt)


@pytest.fixture
def run_dir(corpus_dir):
    _index(corpus_dir, corpus_dir / "idx", "raw")
    (corpus_dir / "ref.csv").write_text("0\n0\n0\n1\n1\n1\n")
    (corpus_dir / "ref2.csv").write_text("0\n0\n1\n1\n1\n1\n")
    (corpus_dir / "stop.txt").write_text("the\nand\n")
    (corpus_dir / "empty.cfg").write_text("# no settings\n")
    write_matrix(corpus_dir / "points.mtx", np.random.default_rng(0).random((2, 8)))
    (corpus_dir / "points.csv").write_text("\n".join(["0"] * 4 + ["1"] * 4) + "\n")
    return corpus_dir


_QUERIES = ["--queries", "{d}/queries.txt", "--qrels", "{d}/qrels.txt"]
_EVAL = ["eval", "--index", "{d}/idx/index.mtx", *_QUERIES]
_SWEEP = ["sweep", "--matrix", "{d}/corpus/matrix.mtx", *_QUERIES, "--ranks", "1:2"]
_REPORT = {"index": "index_meta.json", "eval": "eval.json",
           "sweep": "sweep.json", "cluster": "scores.json"}


def _run(d, argv):
    """Run ``argv`` with ``{d}`` set to ``d``; returns the output directory."""
    argv = [arg.format(d=d) for arg in argv]
    out = argv[argv.index("--out") + 1] if "--out" in argv else tempfile.mkdtemp(dir=d)
    assert main([*argv, "--out", out]) == 0
    return Path(out)


def _report_hash(d, argv):
    report = json.loads((_run(d, argv) / _REPORT[argv[0]]).read_text())
    return (report["index"] if argv[0] == "eval" else report)["config_hash"]


@pytest.mark.parametrize("argv, key, value", [
    (["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "svd"], "rank", "2"),
    (["cluster", "--matrix", "{d}/points.mtx", "--method", "spectral", "--k", "2",
      "--reference", "{d}/points.csv"], "alpha", "0.3"),
    (_EVAL, "min_length", "3"),
    (_SWEEP, "min-length", "3"),
], ids=["index-rank", "cluster-alpha", "eval-min_length", "sweep-min-length"])
def test_config_value_runs_like_its_flag(run_dir, argv, key, value):
    cfg = run_dir / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    via_config = _run(run_dir, [*argv, "--config", str(cfg), "--quiet"])
    via_flag = _run(run_dir, [*argv, "--" + key.replace("_", "-"), value, "--quiet"])
    names = sorted(p.name for p in via_flag.iterdir())
    assert names == sorted(p.name for p in via_config.iterdir())
    for name in names:  # the config path is not hashed, so even the reports match
        assert (via_config / name).read_bytes() == (via_flag / name).read_bytes(), name


@pytest.mark.parametrize("word", ["false", "true"])
def test_config_log_scale_queries_word_reaches_the_queries(run_dir, monkeypatch, word):
    build, damped = cli.corpus_mod.build_query_matrix, []

    def spy(*args, apply_log_scale, **kwargs):
        damped.append(apply_log_scale)
        return build(*args, apply_log_scale=apply_log_scale, **kwargs)

    monkeypatch.setattr(cli.corpus_mod, "build_query_matrix", spy)
    (run_dir / "run.cfg").write_text(f"log_scale_queries={word}\n")
    _run(run_dir, [*_EVAL, "--config", "{d}/run.cfg", "--quiet"])
    assert damped == [word == "true"]


@pytest.mark.parametrize("argv, extra, hashed", [
    (_EVAL, ["--stoplist", "{d}/stop.txt"], True),
    (_EVAL, ["--min-length", "3"], True),
    (_EVAL, ["--log-scale-queries", "false"], True),
    (_EVAL, ["--vocab", "{d}/corpus/vocabulary.txt"], True),
    (_SWEEP, ["--stoplist", "{d}/stop.txt"], True),
    (_SWEEP, ["--log-scale-queries", "false"], True),
    (["cluster", "--matrix", "{d}/corpus/matrix.mtx", "--method", "bipartite-svd", "--k", "2",
      "--reference", "{d}/ref.csv"], ["--reference", "{d}/ref2.csv"], True),
    (["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "raw"],
     ["--vocab", "{d}/corpus/vocabulary.txt"], True),
    (_EVAL, ["--out", "{d}/elsewhere"], False),
    (_EVAL, ["--quiet"], False),
    (_EVAL, ["--config", "{d}/empty.cfg"], False),
], ids=["eval-stoplist", "eval-min-length", "eval-log-scale-queries", "eval-vocab",
        "sweep-stoplist", "sweep-log-scale-queries", "cluster-reference", "index-vocab",
        "eval-out", "eval-quiet", "eval-config"])
def test_report_config_hash_follows_result_options(run_dir, argv, extra, hashed):
    changed = _report_hash(run_dir, [*argv, *extra]) != _report_hash(run_dir, argv)
    assert changed == hashed


_SPECTRAL = ["cluster", "--matrix", "{d}/points.mtx", "--method", "spectral", "--k", "2"]


@pytest.mark.parametrize("argv, line, named", [
    ([*_SPECTRAL, "--reference", "{d}/points.csv"], "alpah=0.3", "no command has an option 'alpah'"),
    ([*_SPECTRAL, "--alpha", "0.3"], "kernel=bogus",
     "kernel='bogus' is not one of gaussian, polynomial, sigmoid"),
    (["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "complete"],
     "stable_window=3", "no command has an option 'stable_window'"),
    (_EVAL, "meta=index_meta.json", "no command has an option 'meta'"),
], ids=["misspelt-key", "bad-choice", "removed-option", "removed-eval-meta"])
def test_config_rejects_unknown_keys_and_bad_choices(run_dir, argv, line, named):
    (run_dir / "run.cfg").write_text(f"# settings\n{line}\n")
    with pytest.raises(SystemExit, match=re.escape(f"config line 2: {named}")):
        _run(run_dir, [*argv, "--config", "{d}/run.cfg", "--quiet"])


def test_config_key_of_another_command_is_ignored(run_dir):
    (run_dir / "run.cfg").write_text("seed=1\n")  # a sweep and cluster option
    via_config = _run(run_dir, [*_EVAL, "--config", "{d}/run.cfg", "--quiet"])
    plain = _run(run_dir, [*_EVAL, "--quiet"])
    assert (via_config / "eval.json").read_bytes() == (plain / "eval.json").read_bytes()


def _options_read(argv):
    """Names the command ``argv`` reads from its parsed arguments."""
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = Recorder(**vars(cli._parse_args(argv)))
    assert args.func(args) == 0
    return read


_CLUSTER_DOCS = ["cluster", "--matrix", "{d}/corpus/matrix.mtx", "--k", "2",
                 "--reference", "{d}/ref.csv", "--method"]
_EVERY_METHOD = {
    "build": [["corpus", "build", "--docs", "{d}/docs.txt"]],
    "index": [["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "raw"],
              ["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "svd", "--rank", "2"],
              ["index", "--matrix", "{d}/corpus/matrix.mtx", "--method", "complete"]],
    "eval": [[*_EVAL, "--csv"]],
    "sweep": [_SWEEP],
    "cluster": [[*_SPECTRAL, "--alpha", "0.3", "--reference", "{d}/points.csv"],
                [*_CLUSTER_DOCS, "bipartite-svd"],
                [*_CLUSTER_DOCS, "nmf"]],
}


def test_every_option_is_read_by_its_command(run_dir):
    # an option no command reads changes nothing but the config_hash
    for words, parser in _leaf_parsers():
        read = set()
        for argv in _EVERY_METHOD[words[-1]]:
            argv = [arg.format(d=run_dir) for arg in argv]
            read |= _options_read([*argv, "--out", tempfile.mkdtemp(dir=run_dir), "--quiet"])
        options = {a.dest for a in parser._actions if a.option_strings}
        assert options - {"help", "config"} - read == set(), words


def test_importing_cli_leaves_scipy_unloaded():
    # scipy is imported where a sparse kernel first runs, so other commands start faster
    env = _child_env()
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lsikit.cli; print('scipy' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_queries_inherit_the_corpus_tokenizer(corpus_dir, monkeypatch):
    (corpus_dir / "stop.txt").write_text("# custom list\nSolar\n\nbread\n")
    corpus = corpus_dir / "custom"
    assert main(["corpus", "build", "--docs", str(corpus_dir / "docs.txt"), "--stoplist",
                 str(corpus_dir / "stop.txt"), "--min-length", "4", "--no-log-scale",
                 "--out", str(corpus), "--quiet"]) == 0
    for method, rank in (("raw", []), ("svd", ["--rank", "2"]), ("complete", [])):
        assert main(["index", "--matrix", str(corpus / "matrix.mtx"), "--method", method,
                     *rank, "--out", str(corpus_dir / method), "--quiet"]) == 0
    build, seen = cli.corpus_mod.build_query_matrix, []

    def spy(queries, vocab, config, apply_log_scale):
        seen.append((config.stoplist, config.min_length, apply_log_scale))
        return build(queries, vocab, config, apply_log_scale=apply_log_scale)

    monkeypatch.setattr(cli.corpus_mod, "build_query_matrix", spy)
    q = ["--queries", str(corpus_dir / "queries.txt"), "--qrels", str(corpus_dir / "qrels.txt")]
    for method in ("raw", "svd", "complete"):
        _run(corpus_dir, ["eval", "--index", str(corpus_dir / method / "index.mtx"), *q, "--quiet"])
    _run(corpus_dir, ["sweep", "--matrix", str(corpus / "matrix.mtx"), *q, "--ranks", "1:2",
                      "--quiet"])
    assert seen == [(frozenset({"solar", "bread"}), 4, False)] * 4


_SHIFTED = {  # document ids 1001.., so positional ids would score nothing
    "docs.txt": re.sub(r"(?m)^\.I (\d)$", r".I 100\1", DOCS),
    "queries.txt": QUERIES,
    "qrels.txt": re.sub(r"(?m) (\d)$", r" 100\1", QRELS),
    "stop.txt": "the\nand\nfor\n",
}
_HASH = re.compile(rb'"config_hash": "[0-9a-f]+"')


def _cli_in(cwd, commands):
    """Run lsikit ``commands`` in order, in one fresh interpreter working in ``cwd``."""
    env = _child_env()
    script = ("import json, sys\nfrom lsikit.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if main(argv + ['--quiet']) != 0:\n"
              "        sys.exit(f'failed: {argv}')\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _evaluations(tree, out):
    """eval over every index and sweep of the run tree at path ``tree``."""
    q = ["--queries", f"{tree}/queries.txt", "--qrels", f"{tree}/qrels.txt"]
    return [*(["eval", "--index", f"{tree}/{method}/index.mtx", *q, "--out", f"{out}/{method}"]
              for method in ("raw", "svd", "complete")),
            ["sweep", "--matrix", f"{tree}/corpus/matrix.mtx", *q, "--ranks", "1:3",
             "--out", f"{out}/sweep"]]


def _reports(out):
    return {name: _HASH.sub(b'"config_hash": ""', (out / name).read_bytes())
            for name in ("raw/eval.json", "svd/eval.json", "complete/eval.json",
                         "sweep/sweep.json")}


def test_run_tree_can_move_and_be_evaluated_from_any_directory(tmp_path):
    here, there = tmp_path / "A", tmp_path / "B"
    here.mkdir()
    there.mkdir()
    for name, text in _SHIFTED.items():
        (here / name).write_text(text)
    m = ["--matrix", "corpus/matrix.mtx"]
    _cli_in(here, [["corpus", "build", "--docs", "docs.txt", "--stoplist", "stop.txt",
                    "--out", "corpus"],
                   ["index", *m, "--method", "raw", "--out", "raw"],
                   ["index", *m, "--method", "svd", "--rank", "2", "--out", "svd"],
                   ["index", *m, "--method", "complete", "--out", "complete"],
                   *_evaluations(".", "in_place")])
    _cli_in(there, _evaluations("../A", "from_b"))
    here.rename(tmp_path / "moved")
    _cli_in(there, _evaluations("../moved", "after_move"))
    want = _reports(tmp_path / "moved" / "in_place")
    assert json.loads(want["raw/eval.json"])["mean_avgp"] > 0.9
    assert _reports(there / "from_b") == want
    assert _reports(there / "after_move") == want
