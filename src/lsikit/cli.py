"""Command-line front end: corpus build, index construction, retrieval
evaluation, rank sweeps, and clustering runs.

Every command resolves its parameters from flags (highest precedence),
an optional ``key=value`` config file, and defaults; the resolved
parameters are hashed into every report for provenance.  Output files
are staged and renamed into place, so a failing run leaves no partial
outputs behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import cluster as cluster_mod
from . import corpus as corpus_mod
from . import lsi as lsi_mod
from . import mmio
from . import retrieval as retrieval_mod
from .graphs import KernelSpec
from .matrix import rank_k_reconstruct, truncated_svd
from .matrix import SvdFactors, as_dense, nmf_factorize


def _config_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _read_config(path):
    out = {}
    if path is None:
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _user_provided(parser, argv, dest):
    for action in parser._actions:
        if action.dest == dest:
            return any(
                tok == opt or tok.startswith(opt + "=")
                for opt in action.option_strings
                for tok in argv
            )
    return False


def _apply_config(args, parser, config):
    # flags win: config only fills options absent from the command line
    argv = getattr(args, "argv_", ())
    for key, raw in config.items():
        if not hasattr(args, key) or _user_provided(parser, argv, key):
            continue
        current_default = parser.get_default(key)
        if isinstance(current_default, bool):
            value = raw.lower() in ("1", "true", "yes", "on")
        elif isinstance(current_default, int):
            value = int(raw)
        elif isinstance(current_default, float):
            value = float(raw)
        else:
            value = raw
        setattr(args, key, value)


class _Stager:
    """Collects output files and renames them into place only when all
    writes succeeded."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out_dir))
        self.staged = []

    def path(self, name) -> Path:
        p = self.tmp_dir / name
        self.staged.append(name)
        return p

    def commit(self):
        for name in self.staged:
            os.replace(self.tmp_dir / name, self.out_dir / name)
        shutil.rmtree(self.tmp_dir, ignore_errors=True)

    def abort(self):
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _info(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _load_vocabulary(path) -> corpus_mod.Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        terms = tuple(line.rstrip("\n") for line in fh if line.rstrip("\n"))
    return corpus_mod.Vocabulary(terms)


def _resolve_stoplist(path):
    if path is None:
        return corpus_mod.default_stoplist()
    if path == "":
        return frozenset()
    return corpus_mod.load_stoplist(path)


# ---------------------------------------------------------------------------
# corpus build


def cmd_corpus_build(args, parser):
    config = _read_config(args.config)
    _apply_config(args, parser, config)
    stoplist = _resolve_stoplist(args.stoplist)
    fields = tuple(f.strip().upper() for f in args.fields.split(",") if f.strip())
    with open(args.docs, "r", encoding="utf-8", errors="replace") as fh:
        docs = corpus_mod.parse_smart(fh.read(), fields)
    tok = corpus_mod.TokenizerConfig(stoplist, args.min_length)
    tdm = corpus_mod.build_matrix(docs, tok)
    if args.log_scale:
        tdm = corpus_mod.log_scale(tdm)
    params = {
        "command": "corpus-build",
        "docs": str(args.docs),
        "fields": list(fields),
        "min_length": args.min_length,
        "log_scale": bool(args.log_scale),
        "stoplist": str(args.stoplist) if args.stoplist is not None else "builtin",
    }
    stats = corpus_mod.collection_stats(tdm)
    stats["config_hash"] = _config_hash(params)
    stats.update(params)
    stager = _Stager(args.out)
    try:
        mmio.write_matrix(stager.path("matrix.mtx"), tdm.matrix)
        with open(stager.path("vocabulary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(tdm.vocabulary.terms) + "\n")
        with open(stager.path("docids.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(d) for d in tdm.doc_ids) + "\n")
        _write_json(stager.path("stats.json"), stats)
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    _info(args, f"built {stats['words']}x{stats['documents']} matrix "
                f"({stats['nnz_percent']:.3f}% nonzero) in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# index


def _sidecar(path, name):
    candidate = Path(path).parent / name
    return candidate if candidate.exists() else None


def _sha256(path):
    # chunked: hashlib.file_digest needs Python 3.11
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _save_binary_index(stager, array, meta):
    """Save ``array`` as ``index.npy`` beside the staged ``index.mtx`` and
    record both files' digests in ``meta``.

    The array is saved in Fortran order, the layout ``mmio.read_matrix``
    returns: a C-ordered copy changes the last bits of ``row @ a``,
    which can reorder nearly tied cosines in ``eval``.
    """
    np.save(stager.path("index.npy"), np.asfortranarray(array), allow_pickle=False)
    meta["index_sha256"] = _sha256(stager.tmp_dir / "index.mtx")
    meta["array_sha256"] = _sha256(stager.tmp_dir / "index.npy")


def _load_binary_index(index_path, meta):
    """The ``index.npy`` beside ``index_path`` when both files still match
    the digests in ``meta``, else None (the caller parses the text)."""
    array_path = _sidecar(index_path, "index.npy")
    if (array_path is None or "array_sha256" not in meta
            or _sha256(index_path) != meta.get("index_sha256")
            or _sha256(array_path) != meta["array_sha256"]):
        return None
    return np.load(array_path, allow_pickle=False)


def cmd_index(args, parser):
    config = _read_config(args.config)
    _apply_config(args, parser, config)
    matrix_path = Path(args.matrix)
    if not matrix_path.exists():
        raise SystemExit(f"matrix file not found: {matrix_path}")
    params = {
        "command": "index",
        "method": args.method,
        "matrix": str(matrix_path),
        "rank": args.rank,
        "maxiter": args.maxiter,
        "stable_window": args.stable_window,
    }
    meta = {
        "method": args.method,
        "source": str(matrix_path),
        "config_hash": _config_hash(params),
    }
    vocab_path = args.vocab or _sidecar(matrix_path, "vocabulary.txt")
    if vocab_path is not None:
        meta["vocabulary"] = str(vocab_path)
    docids_path = _sidecar(matrix_path, "docids.txt")
    if docids_path is not None:
        meta["docids"] = str(docids_path)
    stats_path = _sidecar(matrix_path, "stats.json")
    if stats_path is not None:
        with open(stats_path, "r", encoding="utf-8") as fh:
            meta["corpus"] = json.load(fh)

    stager = _Stager(args.out)
    try:
        if args.method == "raw":
            shutil.copyfile(matrix_path, stager.path("index.mtx"))
        elif args.method == "svd":
            m = mmio.read_matrix(matrix_path)
            dense = as_dense(m)
            if args.rank is None:
                raise SystemExit("svd method requires --rank")
            if not 1 <= args.rank <= min(dense.shape):
                raise SystemExit(
                    f"invalid rank {args.rank}: must lie in [1, {min(dense.shape)}]"
                )
            full = truncated_svd(dense, min(dense.shape))
            factors = SvdFactors(full.left[:, : args.rank],
                                 full.values[: args.rank],
                                 full.right[:, : args.rank])
            approx = rank_k_reconstruct(factors)
            mmio.write_matrix(stager.path("index.mtx"), approx)
            _save_binary_index(stager, approx, meta)
            np.savez(stager.path("svd_factors.npz"), left=full.left,
                     values=full.values, right=full.right)
            meta["rank"] = args.rank
            meta["singular_values"] = [float(v) for v in factors.values]
        elif args.method == "complete":
            m = mmio.read_matrix(matrix_path)
            completed, trace = lsi_mod.complete(m, args.maxiter, args.stable_window)
            mmio.write_matrix(stager.path("index.mtx"), completed)
            _save_binary_index(stager, completed, meta)
            trace_payload = {
                "norms": [float(v) for v in trace.norms],
                "conviter": trace.conviter,
                "converged": trace.converged,
                "ps_percent": trace.ps_percent,
                "changed": list(trace.changed),
            }
            _write_json(stager.path("trace.json"), trace_payload)
            meta.update(trace_payload)
        else:
            raise SystemExit(f"unknown index method {args.method!r}")
        _write_json(stager.path("index_meta.json"), meta)
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    _info(args, f"wrote {args.method} index to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_eval_inputs(args, index=None):
    """Index, queries and judgments for ``eval``; ``sweep`` passes the
    matrix it has already read as ``index``."""
    index_path = Path(args.index)
    if not index_path.exists():
        raise SystemExit(f"index file not found: {index_path}")
    meta = {}
    meta_path = args.meta or _sidecar(index_path, "index_meta.json")
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    if index is None:
        index = _load_binary_index(index_path, meta)
    if index is None:
        index = mmio.read_matrix(index_path)
    vocab_path = args.vocab or meta.get("vocabulary") or _sidecar(index_path, "vocabulary.txt")
    if vocab_path is None:
        raise SystemExit("no vocabulary: pass --vocab or keep vocabulary.txt next to the matrix")
    vocab = _load_vocabulary(vocab_path)
    index_dense = as_dense(index)
    if index_dense.shape[0] != len(vocab):
        raise SystemExit(
            f"vocabulary axis mismatch: index has {index_dense.shape[0]} rows, "
            f"vocabulary has {len(vocab)} terms"
        )
    corpus_meta = meta.get("corpus", {})
    if not corpus_meta:
        stats_path = _sidecar(index_path, "stats.json")
        if stats_path is not None:
            with open(stats_path, "r", encoding="utf-8") as fh:
                corpus_meta = json.load(fh)
    min_length = args.min_length if args.min_length is not None else int(
        corpus_meta.get("min_length", corpus_mod.DEFAULT_MIN_LENGTH))
    log_scale = args.log_scale_queries
    if log_scale is None:
        log_scale = bool(corpus_meta.get("log_scale", True))
    stoplist_src = args.stoplist
    if stoplist_src is None:
        recorded = corpus_meta.get("stoplist")
        stoplist_src = None if recorded in (None, "builtin") else recorded
    stoplist = _resolve_stoplist(stoplist_src)
    with open(args.queries, "r", encoding="utf-8", errors="replace") as fh:
        queries = corpus_mod.parse_smart(fh.read(), ("W",))
    tok = corpus_mod.TokenizerConfig(stoplist, min_length)
    qmatrix = corpus_mod.build_query_matrix(queries, vocab, tok, apply_log_scale=log_scale)
    with open(args.qrels, "r", encoding="utf-8") as fh:
        judgments = corpus_mod.parse_qrels(fh.read())
    doc_ids = None
    docids_path = meta.get("docids") or _sidecar(index_path, "docids.txt")
    if docids_path and Path(docids_path).exists():
        with open(docids_path, "r", encoding="utf-8") as fh:
            doc_ids = [int(line) for line in fh if line.strip()]
    qids = [d.id for d in queries]
    return index_dense, qmatrix, qids, doc_ids, judgments, meta


def cmd_eval(args, parser):
    config = _read_config(args.config)
    _apply_config(args, parser, config)
    index, qmatrix, qids, doc_ids, judgments, meta = _load_eval_inputs(args)
    params = {
        "command": "eval",
        "index": str(args.index),
        "queries": str(args.queries),
        "qrels": str(args.qrels),
        "points": args.points,
    }
    run_meta = {
        "type": meta.get("method", "unknown"),
        "config_hash": _config_hash(params),
    }
    for key in ("rank", "conviter", "converged", "ps_percent"):
        if key in meta:
            run_meta[key] = meta[key]
    report = retrieval_mod.evaluate(qmatrix, index, judgments, args.points,
                                    query_ids=qids, doc_ids=doc_ids, meta=run_meta)
    stager = _Stager(args.out)
    try:
        _write_json(stager.path("eval.json"), report.to_json_dict())
        if args.csv:
            with open(stager.path("eval.csv"), "w", encoding="utf-8") as fh:
                fh.write("qid,avgp\n")
                for qid, avgp in report.per_query:
                    fh.write(f"{qid},{avgp!r}\n")
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    _info(args, f"mean {args.points}-point interpolated average precision: "
                f"{report.mean_avgp:.4f} over {len(report.per_query)} queries")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _parse_ranks(spec: str):
    ranks = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            ranks.extend(range(int(lo), int(hi) + 1))
        else:
            ranks.append(int(part))
    ranks = sorted(set(ranks))
    if not ranks or ranks[0] < 1:
        raise SystemExit(f"invalid rank list {spec!r}")
    return ranks


def cmd_sweep(args, parser):
    config = _read_config(args.config)
    _apply_config(args, parser, config)
    args.index = args.matrix  # queries are built against the raw matrix's vocabulary
    args.meta = None
    params = {
        "command": "sweep",
        "matrix": str(args.matrix),
        "queries": str(args.queries),
        "qrels": str(args.qrels),
        "ranks": args.ranks,
        "points": args.points,
        "maxiter": args.maxiter,
        "stable_window": args.stable_window,
        "nmf_rank": args.nmf_rank,
        "nmf_iterations": args.nmf_iterations,
        "seed": args.seed,
    }
    matrix = mmio.read_matrix(args.matrix)
    dense, qmatrix, qids, doc_ids, judgments, _ = _load_eval_inputs(args, matrix)
    ranks = _parse_ranks(args.ranks)
    if ranks[-1] > min(dense.shape):
        raise SystemExit(f"rank {ranks[-1]} exceeds min(M, N) = {min(dense.shape)}")

    full = truncated_svd(dense, min(dense.shape))
    svd_means = []
    for k in ranks:
        approx = (full.left[:, :k] * full.values[:k]) @ full.right[:, :k].T
        rep = retrieval_mod.evaluate(qmatrix, approx, judgments, args.points,
                                     query_ids=qids, doc_ids=doc_ids)
        svd_means.append(rep.mean_avgp)

    completed, trace = lsi_mod.complete(matrix, args.maxiter, args.stable_window)
    completion_mean = retrieval_mod.evaluate(
        qmatrix, completed, judgments, args.points,
        query_ids=qids, doc_ids=doc_ids).mean_avgp

    nmf_rank = args.nmf_rank if args.nmf_rank is not None else ranks[-1]
    basis, coeff = nmf_factorize(dense, nmf_rank, args.nmf_iterations, args.seed)
    nmf_mean = retrieval_mod.evaluate(
        qmatrix, basis @ coeff, judgments, args.points,
        query_ids=qids, doc_ids=doc_ids).mean_avgp

    stager = _Stager(args.out)
    try:
        with open(stager.path("sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write("rank,svd,completion,nmf\n")
            for k, mean in zip(ranks, svd_means):
                fh.write(f"{k},{mean!r},{completion_mean!r},{nmf_mean!r}\n")
        best = int(np.argmax(svd_means))
        _write_json(stager.path("sweep.json"), {
            "ranks": ranks,
            "svd": svd_means,
            "best_rank": ranks[best],
            "best_svd": svd_means[best],
            "completion": completion_mean,
            "completion_conviter": trace.conviter,
            "nmf": nmf_mean,
            "nmf_rank": nmf_rank,
            "points": args.points,
            "seed": args.seed,
            "config_hash": _config_hash(params),
        })
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    _info(args, f"svd best {max(svd_means):.4f} at rank {ranks[int(np.argmax(svd_means))]}; "
                f"completion {completion_mean:.4f}; nmf {nmf_mean:.4f}")
    return 0


# ---------------------------------------------------------------------------
# cluster


def _read_reference_labels(path):
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith("item,"):
                continue
            parts = line.split(",")
            labels.append(int(parts[-1]))
    return np.array(labels, dtype=np.int64)


def cmd_cluster(args, parser):
    config = _read_config(args.config)
    _apply_config(args, parser, config)
    matrix = mmio.read_matrix(args.matrix)
    dense = as_dense(matrix)
    params = {
        "command": "cluster",
        "matrix": str(args.matrix),
        "method": args.method,
        "k": args.k,
        "seed": args.seed,
        "trials": args.trials,
        "kernel": args.kernel,
        "alpha": args.alpha,
        "c": args.c,
        "d": args.d,
        "theta": args.theta,
    }
    if args.method == "spectral":
        if args.kernel == "gaussian" and args.alpha is None:
            raise SystemExit("gaussian kernel requires --alpha")
        spec = KernelSpec(args.kernel, c=args.c or 0.0, d=args.d or 1,
                          alpha=args.alpha or 0.0, theta=args.theta or 0.0)
        run = cluster_mod.spectral_cluster(dense, args.k, spec, args.seed)
    elif args.method == "bipartite-svd":
        run = cluster_mod.bipartite_svd_cluster(dense, args.k, args.seed)
    elif args.method == "nmf":
        run = cluster_mod.nmf_cluster(dense, args.k, args.seed, trials=args.trials)
    else:
        raise SystemExit(f"unknown clustering method {args.method!r}")

    scores = None
    if args.reference is not None:
        reference = _read_reference_labels(args.reference)
        if args.method == "nmf" and args.trials > 1:
            scores = cluster_mod.nmf_trial_scores(dense, reference, args.k,
                                                  args.seed, args.trials)
        else:
            scores = cluster_mod.eval_clustering(run.labels, reference)

    stager = _Stager(args.out)
    try:
        with open(stager.path("labels.csv"), "w", encoding="utf-8") as fh:
            fh.write("item,label\n")
            for i, lab in enumerate(run.labels):
                fh.write(f"{i},{lab}\n")
        if scores is not None:
            _write_json(stager.path("scores.json"), {
                "method": run.method,
                "k": run.k,
                "seed": run.seed,
                "trials": run.trials,
                "config_hash": _config_hash(params),
                "scores": {
                    "mi": scores.mutual_information,
                    "entropy": scores.entropy,
                    "purity": scores.purity,
                    "fmeasure": scores.f_measure,
                },
            })
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    _info(args, f"{run.method} clustering into k={run.k} written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--quiet", action="store_true", help="suppress progress messages")


def _add_query_options(p):
    p.add_argument("--points", type=int, default=11, help="interpolation points (default 11)")
    p.add_argument("--vocab", default=None,
                   help="vocabulary file (default: from index metadata or a sibling vocabulary.txt)")
    p.add_argument("--stoplist", default=None, help="stop-word file override")
    p.add_argument("--min-length", type=int, default=None, help="token length override")
    p.add_argument("--log-scale-queries", type=lambda s: s.lower() in ("1", "true", "yes"),
                   default=None, help="override query log damping (true/false)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lsikit",
        description="SVD clustering and similarity-completion LSI toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus_p = sub.add_parser("corpus", help="corpus operations")
    corpus_sub = corpus_p.add_subparsers(dest="subcommand", required=True)
    build_p = corpus_sub.add_parser("build", help="build a term-document matrix from SMART files")
    build_p.add_argument("--docs", required=True, help="SMART document file")
    build_p.add_argument("--stoplist", default=None,
                         help="stop-word file (default: bundled English list; '' disables)")
    build_p.add_argument("--fields", default="W", help="comma-separated field tags to index (default W)")
    build_p.add_argument("--min-length", type=int, default=corpus_mod.DEFAULT_MIN_LENGTH,
                         help="minimum token length (default 2)")
    build_p.add_argument("--no-log-scale", dest="log_scale", action="store_false",
                         help="skip log(1 + x) damping of counts")
    _add_common(build_p)
    build_p.set_defaults(func=cmd_corpus_build, parser_ref=build_p)

    index_p = sub.add_parser("index", help="build a retrieval index from a matrix")
    index_p.add_argument("--matrix", required=True, help="Matrix Market input")
    index_p.add_argument("--method", required=True, choices=("raw", "svd", "complete"))
    index_p.add_argument("--rank", type=int, default=None, help="rank for --method svd")
    index_p.add_argument("--maxiter", type=int, default=100, help="completion iteration cap")
    index_p.add_argument("--stable-window", type=int, default=3,
                         help="consecutive unchanged iterations required to declare convergence")
    index_p.add_argument("--vocab", default=None, help="vocabulary sidecar to record in metadata")
    _add_common(index_p)
    index_p.set_defaults(func=cmd_index, parser_ref=index_p)

    eval_p = sub.add_parser("eval", help="evaluate queries against an index")
    eval_p.add_argument("--index", required=True,
                        help="index matrix (Matrix Market); a sibling index.npy "
                             "matching the metadata's digests is loaded instead")
    eval_p.add_argument("--queries", required=True, help="SMART query file")
    eval_p.add_argument("--qrels", required=True, help="relevance judgments file")
    _add_query_options(eval_p)
    eval_p.add_argument("--meta", default=None, help="index metadata JSON (default: sibling of index)")
    eval_p.add_argument("--csv", action="store_true", help="also write per-query CSV")
    _add_common(eval_p)
    eval_p.set_defaults(func=cmd_eval, parser_ref=eval_p)

    sweep_p = sub.add_parser("sweep", help="average precision across SVD ranks plus baselines")
    sweep_p.add_argument("--matrix", required=True, help="term-document matrix (Matrix Market)")
    sweep_p.add_argument("--queries", required=True, help="SMART query file")
    sweep_p.add_argument("--qrels", required=True, help="relevance judgments file")
    sweep_p.add_argument("--ranks", required=True, help="rank list, e.g. 1:40 or 5,10,20")
    _add_query_options(sweep_p)
    sweep_p.add_argument("--maxiter", type=int, default=100)
    sweep_p.add_argument("--stable-window", type=int, default=3)
    sweep_p.add_argument("--nmf-rank", type=int, default=None,
                         help="rank of the NMF baseline (default: largest sweep rank)")
    sweep_p.add_argument("--nmf-iterations", type=int, default=200)
    _add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep, parser_ref=sweep_p)

    cluster_p = sub.add_parser("cluster", help="cluster a matrix")
    cluster_p.add_argument("--matrix", required=True, help="Matrix Market input")
    cluster_p.add_argument("--method", required=True, choices=("spectral", "bipartite-svd", "nmf"))
    cluster_p.add_argument("--k", type=int, required=True, help="number of clusters")
    cluster_p.add_argument("--kernel", default="gaussian", choices=("gaussian", "polynomial", "sigmoid"))
    cluster_p.add_argument("--alpha", type=float, default=None, help="gaussian kernel width")
    cluster_p.add_argument("--c", type=float, default=None, help="polynomial/sigmoid shift")
    cluster_p.add_argument("--d", type=int, default=None, help="polynomial degree")
    cluster_p.add_argument("--theta", type=float, default=None, help="sigmoid offset")
    cluster_p.add_argument("--trials", type=int, default=1, help="nmf trials to average")
    cluster_p.add_argument("--reference", default=None, help="reference labels CSV for scoring")
    _add_common(cluster_p)
    cluster_p.set_defaults(func=cmd_cluster, parser_ref=cluster_p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv_ = tuple(argv)
    try:
        return args.func(args, args.parser_ref)
    except SystemExit:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
