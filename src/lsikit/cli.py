"""Command-line front end: corpus build, index construction, retrieval
evaluation, rank sweeps, and clustering runs.

Every command takes its parameters from flags (highest precedence,
abbreviated ones too), an optional ``key=value`` config file, and
defaults.  Config values become the parser's defaults, so each is
converted by its option's own type, exactly like the flag.  Every report
carries a hash of all parsed parameters except ``--out``, ``--quiet``
and ``--config``, for provenance.  Every output file is staged and renamed
into place by one stager, so a failing run changes nothing in ``--out``.
A successful one also removes each optional output that it did not
write (``eval.csv`` without ``--csv``, ``scores.json`` without
``--reference``, an index's binary twin, factors, trace and corpus
files), so no output of an earlier run is left beside this run's.
Integer flags with a fixed least value (``_LEAST``) are checked once,
config-file values included, before the command reads any input; ranks
are checked against the matrix file's size line.
Every command runs numpy's OpenBLAS on the calling thread
(:func:`lsikit.matrix.blas_on_calling_thread`), so its GEMMs, GEMVs,
NMF and LAPACK calls, and with them every output byte, do not depend on
the BLAS thread count.
``sweep`` factorizes its NMF baseline in one forked worker process while
it computes the SVD curve and the completion itself, on Linux with at
least two usable CPUs; elsewhere it factorizes inline, after the
completion.  The worker makes the same call on its calling thread's BLAS,
so the bytes it sends back equal the inline path's, and it is killed and
reaped if the command fails first, so no process outlives the command.
``eval`` and ``sweep`` tokenize queries as the matrix's corpus was
tokenized, by the files beside the matrix alone, never through a
recorded path or an option, so a corpus or index directory can be moved
and used from anywhere.  ``eval`` and ``cluster`` read a matrix through
one function, which loads an index's verified binary twin when it can.
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
from .matrix import (as_dense, blas_on_calling_thread, nmf_factorize, rank_k_reconstruct,
                     truncated_svd)


# dispatch entries and options that do not change what a run computes
_UNHASHED = ("func", "parser_ref", "config", "out", "quiet")
_TRUE_WORDS = ("1", "true", "yes", "on")
# least values of the integer flags whose bound needs no input; main checks them
# before the command reads anything
_LEAST = {"maxiter": 1, "points": 2, "nmf_iterations": 1, "k": 1, "trials": 1, "seed": 0}


def _config_hash(args) -> str:
    params = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    canon = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


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
            out[dest] = value.lower() in _TRUE_WORDS if action.nargs == 0 else value
    return out


class _Stager:
    """Stages a command's output files and renames them into place when
    the ``with`` block succeeds; on any exception the staged files are
    discarded and ``out_dir`` is left as it was.  Text outputs are UTF-8
    with Unix line ends on every platform.  After a successful block,
    each ``optional`` file that the run did not write is removed, so no
    output of an earlier run with other options is left beside this
    run's."""

    def __init__(self, out_dir, optional=()):
        self.out_dir = Path(out_dir)
        self.optional = optional

    def __enter__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out_dir))
        self.staged = []
        return self

    def path(self, name) -> Path:
        self.staged.append(name)
        return self.tmp_dir / name

    def write_text(self, name, text):
        self.path(name).write_text(text, encoding="utf-8", newline="\n")

    def write_json(self, name, payload):
        self.write_text(name, json.dumps(payload, indent=2) + "\n")

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for name in self.staged:
                    os.replace(self.tmp_dir / name, self.out_dir / name)
                for name in set(self.optional) - set(self.staged):
                    (self.out_dir / name).unlink(missing_ok=True)
        finally:
            shutil.rmtree(self.tmp_dir, ignore_errors=True)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    # eval and sweep read min_length and log_scale back to build matching queries
    stats = {
        "words": tdm.matrix.rows,
        "documents": tdm.matrix.cols,
        "nnz_percent": tdm.nnz_percent,
        "config_hash": _config_hash(args),
        "command": "corpus-build",
        "docs": args.docs,
        "fields": list(fields),
        "min_length": args.min_length,
        "log_scale": args.log_scale,
        "stoplist": args.stoplist if args.stoplist is not None else "builtin",
    }
    with _Stager(args.out) as stager:
        mmio.write_matrix(stager.path("matrix.mtx"), tdm.matrix)
        stager.write_text("vocabulary.txt", "\n".join(tdm.vocabulary.terms) + "\n")
        stager.write_text("docids.txt", "\n".join(str(d) for d in tdm.doc_ids) + "\n")
        stager.write_json("stats.json", stats)
        stager.write_text("stoplist.txt", "".join(f"{word}\n" for word in sorted(stoplist)))
    _info(args, f"built {stats['words']}x{stats['documents']} matrix "
                f"({stats['nnz_percent']:.3f}% nonzero) in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# index


# the files beside a matrix that describe its corpus; eval and sweep read them
_CORPUS_FILES = ("vocabulary.txt", "docids.txt", "stats.json", "stoplist.txt")


def _write_index(stager, array, meta):
    """Stage ``array`` as ``index.npy`` and ``index.mtx`` and record both
    files' digests in ``meta``.

    The array is saved in Fortran order, the layout ``mmio.read_matrix``
    returns: a C-ordered copy changes the last bits of ``row @ a``,
    which can reorder nearly tied cosines in ``eval``.  The same
    Fortran-ordered array is the text writer's input, which returns the
    digest of the text it wrote.
    """
    array = np.asfortranarray(array)
    np.save(stager.path("index.npy"), array, allow_pickle=False)
    meta["index_sha256"] = mmio.write_matrix(stager.path("index.mtx"), array)
    meta["array_sha256"] = mmio.file_sha256(stager.tmp_dir / "index.npy")


def _index_meta(path):
    """The ``index_meta.json`` beside ``path``, or {} if there is none."""
    meta_path = Path(path).parent / "index_meta.json"
    return _read_json(meta_path) if meta_path.exists() else {}


def _read_matrix(path):
    """The matrix at ``path``: a ``.npy`` file as a 2-D array (pickled
    objects are refused), any other file as Matrix Market.  For the text
    the ``index.npy`` beside it is loaded instead when both files still
    match the digests in the ``index_meta.json`` beside them."""
    path = Path(path)
    if path.suffix == ".npy":
        return as_dense(np.load(path, allow_pickle=False))
    meta, twin = _index_meta(path), path.parent / "index.npy"
    if ("array_sha256" in meta and twin.exists()
            and mmio.file_sha256(path) == meta.get("index_sha256")
            and mmio.file_sha256(twin) == meta["array_sha256"]):
        return np.load(twin, allow_pickle=False)
    return mmio.read_matrix(path)


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
    home = matrix_path.parent
    if (home / "vocabulary.txt").exists():
        _read_vocabulary(home / "vocabulary.txt", shape[0])
    meta = {
        "method": args.method,
        "source": str(matrix_path),
        "config_hash": _config_hash(args),
    }
    if args.method != "raw":
        # The dense writer's scipy.io, imported before the index exists: its
        # long-lived allocations, made while the index is alive, keep the
        # heap pages of the freed index resident (88 against 105 MB peak
        # in the benchmark's medline-complete process).
        import scipy.io  # noqa: F401
    with _Stager(args.out, optional=("index.npy", "svd_factors.npz", "trace.json",
                                     *_CORPUS_FILES)) as stager:
        for name in _CORPUS_FILES:
            if (home / name).exists():
                shutil.copyfile(home / name, stager.path(name))
        if args.method == "raw":
            shutil.copyfile(matrix_path, stager.path("index.mtx"))
        elif args.method == "svd":
            full = truncated_svd(mmio.read_matrix(matrix_path), min(shape))
            _write_index(stager, rank_k_reconstruct(full, args.rank), meta)
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
            stager.write_json("trace.json", trace_payload)
            meta.update(trace_payload)
        stager.write_json("index_meta.json", meta)
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
    beside it alone: vocabulary.txt, docids.txt, stats.json
    (``min_length``, ``log_scale``) and stoplist.txt.  Without stats.json
    the builtin stop words, minimum length 2 and log damping apply;
    without docids.txt, document ids are positional.
    """
    home = Path(matrix_path).parent
    vocab = _read_vocabulary(home / "vocabulary.txt", rows)
    if (home / "stats.json").exists():
        stats = _read_json(home / "stats.json")
        # missing in directories of earlier versions: an error
        stoplist = corpus_mod.load_stoplist(home / "stoplist.txt")
    else:
        stats, stoplist = {}, corpus_mod.default_stoplist()
    tok = corpus_mod.TokenizerConfig(
        stoplist, int(stats.get("min_length", corpus_mod.DEFAULT_MIN_LENGTH)))
    with open(args.queries, "r", encoding="utf-8", errors="replace") as fh:
        queries = corpus_mod.parse_smart(fh.read(), ("W",))
    qmatrix = corpus_mod.build_query_matrix(queries, vocab, tok,
                                            apply_log_scale=bool(stats.get("log_scale", True)))
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
    meta = _index_meta(index_path)
    index = as_dense(_read_matrix(index_path))
    qmatrix, qids, doc_ids, judgments = _load_queries(args, index_path, index.shape[0])
    report = retrieval_mod.evaluate(qmatrix, index, judgments, args.points,
                                    query_ids=qids, doc_ids=doc_ids)
    facts = {"type": meta.get("method", "unknown"), "config_hash": _config_hash(args)}
    facts.update((key, meta[key]) for key in ("rank", "conviter", "converged", "ps_percent")
                 if key in meta)
    with _Stager(args.out, optional=("eval.csv",)) as stager:
        stager.write_json("eval.json", {
            "index": facts,
            "points": report.points,
            "per_query": [{"qid": q, "avgp": v} for q, v in report.per_query],
            "mean_avgp": report.mean_avgp,
            "skipped": list(report.skipped),
        })
        if args.csv:
            stager.write_text("eval.csv", "qid,avgp\n" + "".join(
                f"{qid},{avgp!r}\n" for qid, avgp in report.per_query))
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
        try:
            ends = [int(end) for end in part.split(":", 1)]
        except ValueError:
            raise SystemExit(f"invalid rank list {spec!r}: {part!r} is neither a rank "
                             "nor a lo:hi range") from None
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


def _forks_a_worker() -> bool:
    """Whether :class:`_Worker` forks: on Linux only (macOS's Accelerate
    BLAS is not fork-safe), and only with at least two CPUs this process
    may run on, since the worker and the caller then both compute."""
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2


class _Worker:
    """``func(*args)`` on the calling thread's BLAS, computed while the
    ``with`` block runs.  When :func:`_forks_a_worker` holds, a forked
    worker makes the call from the start of the block and sends back its
    pickled result, or the exception it raised, over a pipe; otherwise
    :meth:`result` makes the call itself.  Either way :meth:`result`
    returns the same bytes or raises an exception of the same type and
    message.  A worker still running when the block is left is killed and
    reaped, so none outlives the block."""

    def __init__(self, func, *args):
        self.func, self.args = func, args
        self.pid = None

    def _call(self):
        with blas_on_calling_thread():
            return self.func(*self.args)

    def __enter__(self):
        if _forks_a_worker():
            read_fd, write_fd = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if self.pid == 0:
                os.close(read_fd)
                self._serve(write_fd)
            os.close(write_fd)
            self.pipe = os.fdopen(read_fd, "rb")
        return self

    def _serve(self, fd):
        """The worker's whole life; it never returns to the caller's stack."""
        import pickle

        code = 1
        try:
            try:
                reply = (True, self._call())
            except Exception as exc:
                reply = (False, exc)
            with os.fdopen(fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # no atexit handler runs and no inherited stdio buffer is flushed twice
            os._exit(code)

    def result(self):
        if self.pid is None:
            return self._call()
        import pickle

        reply = self.pipe.read()
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            import signal

            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with code {code}")
            raise ChildProcessError(f"the {self.func.__name__} worker {how} "
                                    "before it sent its result")
        # bytes that this process's own fork wrote
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    def __exit__(self, exc_type, exc, tb):
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            self.pipe.close()


def cmd_sweep(args):
    """MAP of every SVD rank, of the completed matrix and of the NMF
    baseline.  The NMF factorizes the matrix as read, sparse, but
    retrieval scores the dense M x N product of its factors.  The NMF
    runs in a :class:`_Worker` while this process computes the SVD curve
    and the completion."""
    shape = mmio.read_shape(args.matrix)
    limit = min(shape)
    ranks = _parse_ranks(args.ranks, limit)
    nmf_rank = args.nmf_rank if args.nmf_rank is not None else ranks[-1]
    if not 1 <= nmf_rank <= limit:
        raise SystemExit(f"invalid --nmf-rank {nmf_rank}: must lie in [1, {limit}]")
    matrix = mmio.read_matrix(args.matrix)
    with _Worker(nmf_factorize, matrix, nmf_rank, args.nmf_iterations, args.seed) as nmf:
        qmatrix, qids, doc_ids, judgments = _load_queries(args, args.matrix, shape[0])
        prepared = retrieval_mod.prepare_queries(qmatrix, judgments, shape, args.points,
                                                 query_ids=qids, doc_ids=doc_ids)

        def mean_avgp(index):
            return retrieval_mod.evaluate_prepared(prepared, index).mean_avgp

        full = truncated_svd(matrix, limit)
        svd_means = [mean_avgp(rank_k_reconstruct(full, k)) for k in ranks]
        completed, trace = lsi_mod.complete(matrix, args.maxiter)
        completion_mean = mean_avgp(completed)
        basis, coeff = nmf.result()
    nmf_mean = mean_avgp(basis @ coeff)

    best = int(np.argmax(svd_means))
    with _Stager(args.out) as stager:
        stager.write_text("sweep.csv", "rank,svd,completion,nmf\n" + "".join(
            f"{k},{mean!r},{completion_mean!r},{nmf_mean!r}\n" for k, mean in zip(ranks, svd_means)))
        stager.write_json("sweep.json", {
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
    """Reference labels by item index: ``item,label`` lines, as ``cluster``
    writes them, in any order (a header line ``item,...`` is skipped), or
    one label per line in item order.  Every item from 0 up has one line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.lower().startswith("item,"):
                continue
            try:
                fields = [int(field) for field in line.split(",")]
            except ValueError:
                fields = []
            if len(fields) not in (1, 2) or (rows and len(fields) != len(rows[0][1])):
                raise ValueError(f"{path} line {number}: expected integers 'item,label' or "
                                 f"'label', the same on every line, got {line!r}")
            rows.append((number, fields))
    if not rows or len(rows[0][1]) == 1:
        return np.array([fields[0] for _, fields in rows], dtype=np.int64)
    line_of = {}
    for number, (item, _) in rows:
        if item < 0:
            raise ValueError(f"{path} line {number}: negative item {item}")
        if item in line_of:
            raise ValueError(f"{path} line {number}: item {item} already on line {line_of[item]}")
        line_of[item] = number
    missing = set(range(len(rows))) - line_of.keys()
    if missing:
        raise ValueError(f"{path}: item {min(missing)} has no line, "
                         f"though line {line_of[max(line_of)]} names item {max(line_of)}")
    labels = np.empty(len(rows), dtype=np.int64)
    for _, (item, label) in rows:
        labels[item] = label
    return labels


def cmd_cluster(args):
    if args.method == "spectral" and args.kernel == "gaussian" and args.alpha is None:
        raise SystemExit("gaussian kernel requires --alpha")
    matrix = _read_matrix(args.matrix)
    if args.method == "spectral":
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

    with _Stager(args.out, optional=("scores.json",)) as stager:
        stager.write_text("labels.csv", "item,label\n" + "".join(
            f"{i},{lab}\n" for i, lab in enumerate(run.labels)))
        if scores is not None:
            stager.write_json("scores.json", {
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
    _add_common(index_p)
    index_p.set_defaults(func=cmd_index, parser_ref=index_p)

    eval_p = sub.add_parser("eval", help="evaluate queries against an index")
    eval_p.add_argument("--index", required=True,
                        help="index matrix: a .npy array, or Matrix Market text for which "
                             "a sibling index.npy matching the digests in the sibling "
                             "index_meta.json is loaded instead")
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
    cluster_p.add_argument("--matrix", required=True,
                           help="Matrix Market input or .npy array, read as eval reads --index")
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
        for dest, least in _LEAST.items():
            if (value := getattr(args, dest, least)) < least:
                raise SystemExit(f"invalid --{dest.replace('_', '-')} {value}: "
                                 f"must be at least {least}")
        with blas_on_calling_thread():
            return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
