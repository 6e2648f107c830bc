"""In-memory span tracing of the lsikit layers for the traced benchmark run.

The public functions of each lsikit module are wrapped at every name a
caller looks up at call time (``lsikit.cli.truncated_svd``,
``lsikit.lsi.completion_step``, ``lsikit.cluster.kmeans``, ...), plus
``SparseMatrix.toarray``.  Each call becomes a span with a name, start,
end and parent; the benchmark itself opens one ``cli.<command>`` span
around every ``lsikit.cli.main`` call.  A span's self time is its
duration minus the time its child spans cover.

Counters that need the call's arguments or result (bytes written, rank
computed, entries changed by a completion step, ...) are computed by a
probe after the span has ended.  The probe's own time is recorded as a
hidden child of the enclosing span, so it is charged to tracing
overhead and not to any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("corpus", "mmio", "matrix", "lsi", "retrieval", "graphs", "cluster")
PROBE = "probe"

_now = time.perf_counter


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][2] = _now()
        self._stack.pop()

    def probe(self, index, fn):
        """Run ``fn`` outside the span ``index`` and attach its counters."""
        start = _now()
        self.spans[index][4] = fn()
        parent = self.spans[index][3]
        self.spans.append([PROBE, start, _now(), parent, None])

    def clear(self):
        self.spans = []


def _probe_completion_step(args, result):
    current = args[0].toarray() if hasattr(args[0], "toarray") else np.asarray(args[0])
    changed = int(np.count_nonzero(result != current))
    return {
        "changed": changed,
        "idle": int(changed == 0),
        "cells": int(result.size),
        "candidate_bytes": int(args[1].nnz) * int(result.shape[1]) * 8,
    }


# name -> probe(args, result) returning a counter dict
PROBES = {
    "corpus.tokenize": lambda args, r: {"tokens": len(r)},
    "mmio.write_matrix": lambda args, r: {"bytes": os.path.getsize(args[0])},
    "mmio.read_matrix": lambda args, r: {"bytes": os.path.getsize(args[0])},
    "matrix.truncated_svd": lambda args, r: {"computed": int(r.values.size)},
    "matrix.symmetric_eigen_topk": lambda args, r: {"k": int(r.values.size),
                                                    "n": int(np.shape(args[0])[0])},
    "matrix.SparseMatrix.toarray": lambda args, r: {"bytes": int(r.nbytes)},
    "lsi.word_similarity": lambda args, r: {"nnz": int(r.nnz), "cells": int(r.dim) ** 2},
    "lsi.completion_step": _probe_completion_step,
    "lsi.complete": lambda args, r: {"steps": len(r[1].norms) - 1},
    "retrieval.score_query": lambda args, r: {"index": id(args[1])},
}


def _wrap(tracer, fn, name):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if probe is not None:
            tracer.probe(index, lambda: probe(args, result))
        return result

    return traced


def instrument(tracer):
    """Wrap every public lsikit function; returns a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lsikit.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = _wrap(tracer, obj, f"{layer}.{name}")
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "lsikit" and not mod_name.startswith("lsikit."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    sparse = importlib.import_module("lsikit.matrix").SparseMatrix
    original_toarray = sparse.toarray
    toarray = _wrap(tracer, original_toarray, "matrix.SparseMatrix.toarray")
    sparse.toarray = toarray

    def restore():
        for module, name, obj in patches:
            setattr(module, name, obj)
        sparse.toarray = original_toarray

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

CLI_COMMANDS = ("corpus-build", "index", "eval", "sweep", "cluster")
SELF_FUNCTIONS = (
    "corpus.parse_smart", "corpus.build_matrix", "corpus.build_query_matrix",
    "mmio.write_matrix", "mmio.read_matrix",
    "matrix.truncated_svd", "matrix.symmetric_eigen_topk", "matrix.kmeans",
    "matrix.nmf_factorize", "matrix.rank_k_reconstruct",
    "lsi.word_similarity", "lsi.completion_step", "lsi.complete",
    "retrieval.evaluate", "retrieval.score_query", "retrieval.interpolated_avg_precision",
    "graphs.kernel_affinity", "graphs.normalize_affinity", "graphs.degree_matrix",
    "cluster.spectral_cluster", "cluster.bipartite_svd_cluster", "cluster.nmf_cluster",
    "cluster.eval_clustering",
)


def layer_metrics(spans, wall_s, rank_used, failed_commands):
    """Per-layer metrics from one pass's spans.

    ``rank_used`` maps the index of each ``cli.*`` span to the largest
    SVD rank that command uses (None when it uses every rank it asks
    for); ``failed_commands`` counts failed commands by name.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
        else:
            top_level += durations[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(lambda: defaultdict(int))
    command_of = [None] * len(spans)
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        command_of[i] = i if parent < 0 else command_of[parent]
        if name == PROBE:
            continue
        self_s[name] += durations[i] - child_time[i]
        calls[name] += 1
        layer = name.split(".", 1)[0]
        self_s[layer] += durations[i] - child_time[i]
        for key, value in (attrs or {}).items():
            if key == "index":
                continue
            if key == "computed":
                used = rank_used.get(command_of[i])
                counters[name]["computed"] += value
                counters[name]["used"] += value if used is None else min(used, value)
            else:
                counters[name][key] += value
    distinct_indexes = {
        (spans[i][3], spans[i][4]["index"])
        for i in range(len(spans)) if spans[i][0] == "retrieval.score_query"
    }

    def ratio(a, b):
        return a / b if b else 0.0

    svd = counters["matrix.truncated_svd"]
    eig = counters["matrix.symmetric_eigen_topk"]
    sim = counters["lsi.word_similarity"]
    step = counters["lsi.completion_step"]
    m = {f"{name}.self_s": self_s[name] for name in SELF_FUNCTIONS}
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS + ("cli",)})
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
        m[f"cli.{command}.failed"] = failed_commands.get(command, 0)
    m.update({
        "corpus.tokens": counters["corpus.tokenize"]["tokens"],
        "mmio.bytes_written": counters["mmio.write_matrix"]["bytes"],
        "mmio.bytes_read": counters["mmio.read_matrix"]["bytes"],
        "matrix.truncated_svd.calls": calls["matrix.truncated_svd"],
        "matrix.truncated_svd.useful_rank_frac": ratio(svd["used"], svd["computed"]),
        "matrix.symmetric_eigen_topk.useful_rank_frac": ratio(eig["k"], eig["n"]),
        "matrix.densify_bytes": counters["matrix.SparseMatrix.toarray"]["bytes"],
        "lsi.similarity_nnz": sim["nnz"],
        "lsi.similarity_density": ratio(sim["nnz"], sim["cells"]),
        "lsi.completion_step.calls": calls["lsi.completion_step"],
        "lsi.completion_step.changed_frac": ratio(step["changed"], step["cells"]),
        "lsi.completion_step.idle_calls": step["idle"],
        "lsi.completion_step.candidate_bytes": step["candidate_bytes"],
        "retrieval.evaluate.calls": calls["retrieval.evaluate"],
        "retrieval.score_query.calls": calls["retrieval.score_query"],
        "retrieval.norms_per_index": ratio(calls["retrieval.score_query"], len(distinct_indexes)),
        "trace.uncovered_frac": ratio(wall_s - top_level, wall_s),
    })
    return m, counters["lsi.complete"]["steps"]
