"""Command-line front end: corpus build, index construction, retrieval
evaluation, rank sweeps, and clustering runs.

Every command takes its parameters from flags (highest precedence,
abbreviated ones too), an optional ``key=value`` config file, and
defaults.  Config values become the parser's defaults, so each is
converted by its option's own type, exactly like the flag.  Every report
carries a hash of all parsed parameters except ``--out``, ``--quiet``
and ``--config``, for provenance.  Output files are staged and renamed
into place, so a failing run leaves no partial outputs behind.
``eval`` and ``sweep`` read how a matrix's corpus was tokenized from
the files beside the matrix, never through a recorded path, so a
corpus or index directory can be moved and used from anywhere.
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
from .matrix import as_dense, nmf_factorize, rank_k_reconstruct, truncated_svd


# dispatch entries and options that do not change what a run computes
_UNHASHED = ("func", "parser_ref", "config", "out", "quiet")
_TRUE_WORDS = ("1", "true", "yes", "on")


def _config_hash(args) -> str:
    params = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    canon = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _is_true(word: str) -> bool:
    return word.strip().lower() in _TRUE_WORDS


def _option_dests(parser) -> set:
    """Option names of ``parser`` and of all its subcommands."""
    dests = {a.dest for a in parser._actions if a.option_strings} - {"help"}
    for sub in parser._actions:
        if isinstance(sub, argparse._SubParsersAction):
            dests.update(*map(_option_dests, sub.choices.values()))
    return dests


def _config_defaults(path, parser, root) -> dict:
    """The ``key=value`` lines of ``path`` as defaults for ``parser``'s
    options.  Values stay strings, so argparse converts them with each
    option's ``type`` (but checks no default against ``choices``, so this
    does); on/off flags take a true/false word.  A key must name an option
    of some command of ``root``, so one file can serve every command."""
    known = _option_dests(root)
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in known:
                raise SystemExit(f"config line {lineno}: no command has an option {key!r}")
            action = actions.get(dest)
            if action is None:
                continue
            if action.choices is not None and value not in action.choices:
                raise SystemExit(f"config line {lineno}: {key}={value!r} is not one of "
                                 + ", ".join(action.choices))
            out[dest] = _is_true(value) if action.nargs == 0 else value
    return out


class _Stager:
    """Stages output files and renames them into place when the ``with``
    block succeeds; on any exception the staged files are discarded."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)

    def __enter__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out_dir))
        self.staged = []
        return self

    def path(self, name) -> Path:
        self.staged.append(name)
        return self.tmp_dir / name

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for name in self.staged:
                    os.replace(self.tmp_dir / name, self.out_dir / name)
        finally:
            shutil.rmtree(self.tmp_dir, ignore_errors=True)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _info(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _resolve_stoplist(path):
    if path is None:
        return corpus_mod.default_stoplist()
    if path == "":
        return frozenset()
    return corpus_mod.load_stoplist(path)


# ---------------------------------------------------------------------------
# corpus build


def cmd_corpus_build(args):
    stoplist = _resolve_stoplist(args.stoplist)
    fields = tuple(f.strip().upper() for f in args.fields.split(",") if f.strip())
    with open(args.docs, "r", encoding="utf-8", errors="replace") as fh:
        docs = corpus_mod.parse_smart(fh.read(), fields)
    tok = corpus_mod.TokenizerConfig(stoplist, args.min_length)
    tdm = corpus_mod.build_matrix(docs, tok)
    if args.log_scale:
        tdm = corpus_mod.log_scale(tdm)
    stats = corpus_mod.collection_stats(tdm)
    stats["config_hash"] = _config_hash(args)
    # eval and sweep read min_length and log_scale back to build matching queries
    stats.update({
        "command": "corpus-build",
        "docs": args.docs,
        "fields": list(fields),
        "min_length": args.min_length,
        "log_scale": args.log_scale,
        "stoplist": args.stoplist if args.stoplist is not None else "builtin",
    })
    with _Stager(args.out) as stager:
        mmio.write_matrix(stager.path("matrix.mtx"), tdm.matrix)
        with open(stager.path("vocabulary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(tdm.vocabulary.terms) + "\n")
        with open(stager.path("docids.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(d) for d in tdm.doc_ids) + "\n")
        _write_json(stager.path("stats.json"), stats)
        with open(stager.path("stoplist.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{word}\n" for word in sorted(stoplist))
    _info(args, f"built {stats['words']}x{stats['documents']} matrix "
                f"({stats['nnz_percent']:.3f}% nonzero) in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# index


# the files beside a matrix that describe its corpus; eval and sweep read them
_CORPUS_FILES = ("vocabulary.txt", "docids.txt", "stats.json", "stoplist.txt")


def _sha256(path):
    # chunked: hashlib.file_digest needs Python 3.11
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_index(stager, array, meta):
    """Stage ``array`` as ``index.npy`` and ``index.mtx`` and record both
    files' digests in ``meta``.

    The array is saved in Fortran order, the layout ``mmio.read_matrix``
    returns: a C-ordered copy changes the last bits of ``row @ a``,
    which can reorder nearly tied cosines in ``eval``.  The same
    Fortran-ordered array is the text writer's input, which reads it in
    place.  The text is not read back: ``mmio.write_matrix`` hashes it
    as it writes it.
    """
    array = np.asfortranarray(array)
    np.save(stager.path("index.npy"), array, allow_pickle=False)
    meta["index_sha256"] = mmio.write_matrix(stager.path("index.mtx"), array)
    meta["array_sha256"] = _sha256(stager.tmp_dir / "index.npy")


def _load_binary_index(index_path, meta):
    """The ``index.npy`` beside ``index_path`` when both files still match
    the digests in ``meta``, else None (the caller parses the text)."""
    array_path = index_path.parent / "index.npy"
    if (not array_path.exists() or "array_sha256" not in meta
            or _sha256(index_path) != meta.get("index_sha256")
            or _sha256(array_path) != meta["array_sha256"]):
        return None
    return np.load(array_path, allow_pickle=False)


def cmd_index(args):
    matrix_path = Path(args.matrix)
    if not matrix_path.exists():
        raise SystemExit(f"matrix file not found: {matrix_path}")
    shape = mmio.read_shape(matrix_path)
    if args.method == "svd":
        if args.rank is None:
            raise SystemExit("svd method requires --rank")
        if not 1 <= args.rank <= min(shape):
            raise SystemExit(f"invalid rank {args.rank}: must lie in [1, {min(shape)}]")
    if args.method == "complete" and args.maxiter < 1:
        raise SystemExit(f"invalid --maxiter {args.maxiter}: must be at least 1")
    vocab_path = Path(args.vocab or matrix_path.parent / "vocabulary.txt")
    if args.vocab is not None or vocab_path.exists():
        _read_vocabulary(vocab_path, shape[0])
    meta = {
        "method": args.method,
        "source": str(matrix_path),
        "config_hash": _config_hash(args),
    }
    with _Stager(args.out) as stager:
        for name in _CORPUS_FILES:
            source = vocab_path if name == "vocabulary.txt" else matrix_path.parent / name
            if source.exists():
                shutil.copyfile(source, stager.path(name))
        if args.method == "raw":
            shutil.copyfile(matrix_path, stager.path("index.mtx"))
        elif args.method == "svd":
            full = truncated_svd(mmio.read_matrix(matrix_path), min(shape))
            _write_index(stager, np.asfortranarray(rank_k_reconstruct(full, args.rank)), meta)
            np.savez(stager.path("svd_factors.npz"), left=full.left,
                     values=full.values, right=full.right)
            meta["rank"] = args.rank
            meta["singular_values"] = [float(v) for v in full.values[: args.rank]]
        else:
            m = mmio.read_matrix(matrix_path)
            completed, trace = lsi_mod.complete(m, args.maxiter)
            completed = np.asfortranarray(completed)  # frees the C-ordered result
            _write_index(stager, completed, meta)
            trace_payload = {
                "norms": [float(v) for v in trace.norms],
                "conviter": trace.conviter,
                "converged": trace.converged,
                "ps_percent": trace.ps_percent,
                "changed": list(trace.changed),
            }
            _write_json(stager.path("trace.json"), trace_payload)
            meta.update(trace_payload)
        _write_json(stager.path("index_meta.json"), meta)
    for name in ("index.npy", "trace.json", "svd_factors.npz", *_CORPUS_FILES):
        if name not in stager.staged:  # left by an earlier run with another method or matrix
            (stager.out_dir / name).unlink(missing_ok=True)
    _info(args, f"wrote {args.method} index to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _read_vocabulary(path, rows):
    """The vocabulary at ``path``, which must have one term per matrix row."""
    with open(path, "r", encoding="utf-8") as fh:
        vocab = corpus_mod.Vocabulary(tuple(line.rstrip("\n") for line in fh if line.rstrip("\n")))
    if rows != len(vocab):
        raise SystemExit(
            f"vocabulary axis mismatch: index has {rows} rows, "
            f"vocabulary has {len(vocab)} terms"
        )
    return vocab


def _load_queries(args, matrix_path, rows):
    """Query matrix, query ids, document ids and judgments for the
    ``rows``-term matrix at ``matrix_path``.

    Queries are tokenized as the matrix's documents were, by the files
    beside it: vocabulary.txt, docids.txt, stats.json (``min_length``,
    ``log_scale``) and stoplist.txt; ``--vocab``, ``--stoplist``,
    ``--min-length`` and ``--log-scale-queries`` override them.  Without
    stats.json the builtin stop words and default settings apply; without
    docids.txt, document ids are positional.
    """
    home = Path(matrix_path).parent
    vocab = _read_vocabulary(args.vocab or home / "vocabulary.txt", rows)
    stats, stoplist_path = {}, args.stoplist
    if (home / "stats.json").exists():
        stats = _read_json(home / "stats.json")
        if stoplist_path is None:  # missing in directories of earlier versions: an error
            stoplist_path = home / "stoplist.txt"
    min_length = args.min_length if args.min_length is not None else int(
        stats.get("min_length", corpus_mod.DEFAULT_MIN_LENGTH))
    log_scale = args.log_scale_queries
    if log_scale is None:
        log_scale = bool(stats.get("log_scale", True))
    tok = corpus_mod.TokenizerConfig(_resolve_stoplist(stoplist_path), min_length)
    with open(args.queries, "r", encoding="utf-8", errors="replace") as fh:
        queries = corpus_mod.parse_smart(fh.read(), ("W",))
    qmatrix = corpus_mod.build_query_matrix(queries, vocab, tok, apply_log_scale=log_scale)
    with open(args.qrels, "r", encoding="utf-8") as fh:
        judgments = corpus_mod.parse_qrels(fh.read())
    doc_ids = None
    if (home / "docids.txt").exists():
        with open(home / "docids.txt", "r", encoding="utf-8") as fh:
            doc_ids = [int(line) for line in fh if line.strip()]
    return qmatrix, [d.id for d in queries], doc_ids, judgments


def cmd_eval(args):
    index_path = Path(args.index)
    if not index_path.exists():
        raise SystemExit(f"index file not found: {index_path}")
    if args.points < 2:
        raise SystemExit(f"invalid --points {args.points}: must be at least 2")
    meta_path = index_path.parent / "index_meta.json"
    meta = _read_json(meta_path) if meta_path.exists() else {}
    index = _load_binary_index(index_path, meta)
    if index is None:
        index = as_dense(mmio.read_matrix(index_path))
    qmatrix, qids, doc_ids, judgments = _load_queries(args, index_path, index.shape[0])
    run_meta = {
        "type": meta.get("method", "unknown"),
        "config_hash": _config_hash(args),
    }
    for key in ("rank", "conviter", "converged", "ps_percent"):
        if key in meta:
            run_meta[key] = meta[key]
    report = retrieval_mod.evaluate(qmatrix, index, judgments, args.points,
                                    query_ids=qids, doc_ids=doc_ids, meta=run_meta)
    with _Stager(args.out) as stager:
        _write_json(stager.path("eval.json"), report.to_json_dict())
        if args.csv:
            with open(stager.path("eval.csv"), "w", encoding="utf-8") as fh:
                fh.write("qid,avgp\n")
                for qid, avgp in report.per_query:
                    fh.write(f"{qid},{avgp!r}\n")
    _info(args, f"mean {args.points}-point interpolated average precision: "
                f"{report.mean_avgp:.4f} over {len(report.per_query)} queries")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _parse_ranks(spec: str, limit: int):
    """The sorted distinct ranks of ``spec``, comma-separated ranks and
    ``lo:hi`` ranges.  Every part's endpoints are checked against
    [1, ``limit``] before any range is expanded."""
    ranks = set()
    for part in filter(None, (p.strip() for p in spec.split(","))):
        ends = [int(end) for end in part.split(":", 1)]
        lo, hi = ends[0], ends[-1]
        if lo < 1:
            raise SystemExit(f"invalid rank list {spec!r}: rank {lo} is below 1")
        if hi > limit:
            raise SystemExit(f"rank {hi} exceeds min(M, N) = {limit}")
        if lo > hi:
            raise SystemExit(f"invalid rank list {spec!r}: range {part} is empty")
        ranks.update(range(lo, hi + 1))
    if not ranks:
        raise SystemExit(f"invalid rank list {spec!r}")
    return sorted(ranks)


def cmd_sweep(args):
    """MAP of every SVD rank, of the completed matrix and of the NMF
    baseline.  The NMF factorizes the matrix as read, sparse, but
    retrieval scores the dense M x N product of its factors."""
    limit = min(mmio.read_shape(args.matrix))
    ranks = _parse_ranks(args.ranks, limit)
    nmf_rank = args.nmf_rank if args.nmf_rank is not None else ranks[-1]
    if not 1 <= nmf_rank <= limit:
        raise SystemExit(f"invalid --nmf-rank {nmf_rank}: must lie in [1, {limit}]")
    if args.nmf_iterations < 1:
        raise SystemExit(f"invalid --nmf-iterations {args.nmf_iterations}: must be at least 1")
    if args.maxiter < 1:
        raise SystemExit(f"invalid --maxiter {args.maxiter}: must be at least 1")
    if args.points < 2:
        raise SystemExit(f"invalid --points {args.points}: must be at least 2")
    matrix = mmio.read_matrix(args.matrix)
    dense = as_dense(matrix)
    qmatrix, qids, doc_ids, judgments = _load_queries(args, args.matrix, dense.shape[0])

    full = truncated_svd(dense, min(dense.shape))
    svd_means = [retrieval_mod.evaluate(qmatrix, rank_k_reconstruct(full, k), judgments,
                                        args.points, query_ids=qids, doc_ids=doc_ids).mean_avgp
                 for k in ranks]

    completed, trace = lsi_mod.complete(matrix, args.maxiter)
    completion_mean = retrieval_mod.evaluate(
        qmatrix, completed, judgments, args.points,
        query_ids=qids, doc_ids=doc_ids).mean_avgp

    basis, coeff = nmf_factorize(matrix, nmf_rank, args.nmf_iterations, args.seed)
    nmf_mean = retrieval_mod.evaluate(
        qmatrix, basis @ coeff, judgments, args.points,
        query_ids=qids, doc_ids=doc_ids).mean_avgp

    best = int(np.argmax(svd_means))
    with _Stager(args.out) as stager:
        with open(stager.path("sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write("rank,svd,completion,nmf\n")
            for k, mean in zip(ranks, svd_means):
                fh.write(f"{k},{mean!r},{completion_mean!r},{nmf_mean!r}\n")
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
            "config_hash": _config_hash(args),
        })
    _info(args, f"svd best {svd_means[best]:.4f} at rank {ranks[best]}; "
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


def cmd_cluster(args):
    matrix = mmio.read_matrix(args.matrix)
    if args.method == "spectral":
        if args.kernel == "gaussian" and args.alpha is None:
            raise SystemExit("gaussian kernel requires --alpha")
        # unset flags take KernelSpec's defaults; a set one, even 0, is checked there
        spec = KernelSpec(args.kernel, **{k: getattr(args, k) for k in ("c", "d", "alpha", "theta")
                                          if getattr(args, k) is not None})
        run = cluster_mod.spectral_cluster(matrix, args.k, spec, args.seed)
    elif args.method == "bipartite-svd":
        run = cluster_mod.bipartite_svd_cluster(matrix, args.k, args.seed)
    else:
        run = cluster_mod.nmf_cluster(matrix, args.k, args.seed, args.trials)

    scores = None
    if args.reference is not None:
        reference = _read_reference_labels(args.reference)
        scores = cluster_mod.mean_scores(
            cluster_mod.eval_clustering(labels, reference) for labels in run.trial_labels)

    with _Stager(args.out) as stager:
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
                "config_hash": _config_hash(args),
                "scores": {
                    "mi": scores.mutual_information,
                    "entropy": scores.entropy,
                    "purity": scores.purity,
                    "fmeasure": scores.f_measure,
                },
            })
    _info(args, f"{run.method} clustering into k={run.k} written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p):
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--quiet", action="store_true", help="suppress progress messages")


def _add_query_options(p):
    p.add_argument("--points", type=int, default=11, help="interpolation points (default 11)")
    p.add_argument("--vocab", default=None,
                   help="vocabulary file (default: vocabulary.txt beside the matrix)")
    p.add_argument("--stoplist", default=None,
                   help="stop-word file ('' disables; default: stoplist.txt beside the matrix)")
    p.add_argument("--min-length", type=int, default=None, help="token length override")
    p.add_argument("--log-scale-queries", type=_is_true,
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
    index_p.add_argument("--vocab", default=None,
                         help="vocabulary file to copy into --out (default: the one beside --matrix)")
    _add_common(index_p)
    index_p.set_defaults(func=cmd_index, parser_ref=index_p)

    eval_p = sub.add_parser("eval", help="evaluate queries against an index")
    eval_p.add_argument("--index", required=True,
                        help="index matrix (Matrix Market); a sibling index.npy matching "
                             "the digests in the sibling index_meta.json is loaded instead")
    eval_p.add_argument("--queries", required=True, help="SMART query file")
    eval_p.add_argument("--qrels", required=True, help="relevance judgments file")
    _add_query_options(eval_p)
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
    sweep_p.add_argument("--nmf-rank", type=int, default=None,
                         help="rank of the NMF baseline (default: largest sweep rank)")
    sweep_p.add_argument("--nmf-iterations", type=int, default=200)
    sweep_p.add_argument("--seed", type=int, default=0, help="NMF baseline seed (default 0)")
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
    cluster_p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    _add_common(cluster_p)
    cluster_p.set_defaults(func=cmd_cluster, parser_ref=cluster_p)

    return parser


def _parse_args(argv):
    """Parse ``argv``; a ``--config`` file's values become the command's
    defaults and the command line is parsed again, so flags win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args.parser_ref.set_defaults(**_config_defaults(args.config, args.parser_ref, parser))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
