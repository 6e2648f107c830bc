"""The benchmark's workload process: one fresh interpreter per run.

Runs a workload's CLI commands one after another through
``lsikit.cli.main(argv)`` (a closed loop with one client), pass after
pass, inside the run directory.  The first pass warms caches and is the
reference for the output checks; every later pass must reproduce its
files byte for byte.  In a traced run, the passes after the untraced
ones run with every lsikit layer wrapped by :mod:`tracer`.

Usage: ``python3 workload.py SPEC.json``; the result is written to the
``result`` path named in the spec.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import tracer as tracing

ADI_RANK = 16
ADI_TOPICS = 8
SWEEP_RANKS = "1:40"
RING_ALPHA = 0.3
MOON_ALPHA = 0.1
QUALITY_TOLERANCE = {"map": 0.005, "purity": 0.05}

_STAGE_OF = {"corpus": "corpus-build"}


class Command:
    def __init__(self, argv, outputs, rank_used=None):
        self.argv = list(argv) + ["--quiet"]
        out = argv[argv.index("--out") + 1]
        self.outputs = [f"{out}/{name}" for name in outputs]
        self.stage = _STAGE_OF.get(argv[0], argv[0])
        self.rank_used = rank_used


def plan(workload):
    """The commands of one pass, with paths relative to the run directory."""
    if workload == "adi-sweep":
        q = ["--queries", "in/ADI.QRY", "--qrels", "in/ADI.REL"]
        m = ["--matrix", "out/corpus/matrix.mtx"]
        ref = ["--reference", "in/ADI.topics.csv"]
        return [
            Command(["corpus", "build", "--docs", "in/ADI.ALL", "--out", "out/corpus"],
                    ["matrix.mtx", "vocabulary.txt", "docids.txt", "stats.json"]),
            Command(["index", *m, "--method", "svd", "--rank", str(ADI_RANK), "--out", "out/svd"],
                    ["index.mtx", "svd_factors.npz", "index_meta.json"], rank_used=ADI_RANK),
            Command(["eval", "--index", "out/svd/index.mtx", *q, "--out", "out/svd"], ["eval.json"]),
            Command(["sweep", *m, *q, "--ranks", SWEEP_RANKS, "--out", "out/sweep"],
                    ["sweep.csv", "sweep.json"], rank_used=int(SWEEP_RANKS.split(":")[1])),
            Command(["cluster", *m, "--method", "bipartite-svd", "--k", str(ADI_TOPICS), *ref,
                     "--out", "out/bipartite"], ["labels.csv", "scores.json"]),
            Command(["cluster", *m, "--method", "nmf", "--k", str(ADI_TOPICS), *ref,
                     "--out", "out/nmf"], ["labels.csv", "scores.json"]),
        ]
    if workload == "medline-complete":
        q = ["--queries", "in/MEDLINE.QRY", "--qrels", "in/MEDLINE.REL"]
        m = ["--matrix", "out/corpus/matrix.mtx"]
        return [
            Command(["corpus", "build", "--docs", "in/MEDLINE.ALL", "--out", "out/corpus"],
                    ["matrix.mtx", "vocabulary.txt", "docids.txt", "stats.json"]),
            Command(["index", *m, "--method", "raw", "--out", "out/raw"],
                    ["index.mtx", "index_meta.json"]),
            Command(["eval", "--index", "out/raw/index.mtx", *q, "--out", "out/raw"], ["eval.json"]),
            Command(["index", *m, "--method", "complete", "--out", "out/complete"],
                    ["index.mtx", "trace.json", "index_meta.json"]),
            Command(["eval", "--index", "out/complete/index.mtx", *q, "--out", "out/complete"],
                    ["eval.json"]),
        ]
    if workload == "spectral-clusters":
        return [
            Command(["cluster", "--matrix", f"in/{name}.mtx", "--method", "spectral", "--k", "2",
                     "--kernel", "gaussian", "--alpha", str(alpha),
                     "--reference", f"in/{name}.labels.csv", "--out", f"out/{name}"],
                    ["labels.csv", "scores.json"])
            for name, alpha in (("rings", RING_ALPHA), ("moons", MOON_ALPHA))
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# passes


class Ops:
    """Operations attempted and failed; an op is a command or a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def _run_command(main, command):
    try:
        return main(command.argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed op, not a crashed benchmark
        traceback.print_exc()
        return 1


def _hash_outputs():
    return {
        str(p): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(Path("out").rglob("*")) if p.is_file()
    }


def run_pass(main, commands, ops, label, tracer=None):
    """One pass; returns (wall seconds, per-stage seconds, output hashes, extras)."""
    shutil.rmtree("out", ignore_errors=True)
    stages = {}
    rank_used = {}
    failed = {}
    start = time.perf_counter()
    for command in commands:
        span = tracer.begin(f"cli.{command.stage}") if tracer else None
        t0 = time.perf_counter()
        code = _run_command(main, command)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
            rank_used[span] = command.rank_used
        stages[command.stage] = stages.get(command.stage, 0.0) + elapsed
        ok = ops.record(code == 0, f"{label}: exit code {code} from lsikit {' '.join(command.argv)}")
        if not ok:
            failed[command.stage] = failed.get(command.stage, 0) + 1
        missing = [p for p in command.outputs if not Path(p).is_file()]
        ops.record(not missing, f"{label}: missing outputs {missing}")
    wall = time.perf_counter() - start
    return wall, stages, _hash_outputs(), (rank_used, failed)


def timed_passes(main, commands, ops, label, budget_s, deadline, reference, tracer=None):
    """Closed loop: passes until the next one would overrun ``budget_s``
    (at least two, unless the run deadline is reached).  Each pass's
    outputs must equal ``reference`` byte for byte."""
    samples = []
    begin = time.perf_counter()
    while True:
        spent = time.perf_counter() - begin
        if samples:
            typical = statistics.median(s[0] for s in samples)
            if time.monotonic() + typical > deadline:
                break
            if len(samples) >= 2 and spent + typical > budget_s:
                break
        if tracer:
            tracer.clear()
        wall, stages, hashes, extra = run_pass(main, commands, ops, f"{label} pass {len(samples) + 1}",
                                               tracer)
        diff = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
        ops.record(not diff, f"{label} pass {len(samples) + 1}: outputs differ from the first pass: {diff}")
        spans = list(tracer.spans) if tracer else None
        samples.append((wall, stages, spans, extra))
    return samples


# ---------------------------------------------------------------------------
# output checks


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def quality(workload):
    """Quality figures read back from the warm-up pass's outputs."""
    if workload == "adi-sweep":
        sweep = _load("out/sweep/sweep.json")
        purities = [_load(f"out/{n}/scores.json")["scores"]["purity"] for n in ("bipartite", "nmf")]
        return {
            "map_svd_best": sweep["best_svd"],
            "best_rank": sweep["best_rank"],
            "map_complete": sweep["completion"],
            "conviter": sweep["completion_conviter"],
            "map_svd_index": _load("out/svd/eval.json")["mean_avgp"],
            "map_nmf": sweep["nmf"],
            "purity_bipartite": purities[0],
            "purity_nmf": purities[1],
            "purity": statistics.fmean(purities),
            "svd_curve": sweep["svd"],
        }
    if workload == "medline-complete":
        trace = _load("out/complete/trace.json")
        return {
            "map_raw": _load("out/raw/eval.json")["mean_avgp"],
            "map_complete": _load("out/complete/eval.json")["mean_avgp"],
            "conviter": trace["conviter"],
            "converged": trace["converged"],
            "norms": trace["norms"],
        }
    purities = [_load(f"out/{n}/scores.json")["scores"]["purity"] for n in ("rings", "moons")]
    return {"purity_rings": purities[0], "purity_moons": purities[1],
            "purity": statistics.fmean(purities)}


def check_quality(workload, q, reference, ops):
    """Compare against the values recorded for this seed on the seed code.

    MAP values may move by ``QUALITY_TOLERANCE["map"]`` (0.005): a
    last-ulp change in a score can swap two adjacent documents, which
    moves one query's 11-point average precision by a few hundredths
    and the mean over 30+ queries by well under 0.005, while a real
    quality regression moves it by more.  Purity may move by 0.05, a
    handful of reassigned items out of 82-200.  Iteration counts and
    convergence flags must match exactly: the completion is exact
    max/multiply arithmetic.  Seeds without a recorded reference get
    sanity bands only.
    """
    tol_map, tol_pur = QUALITY_TOLERANCE["map"], QUALITY_TOLERANCE["purity"]
    for key, value in q.items():
        if key.startswith(("map_", "purity")):
            ops.record(0.0 < value <= 1.0, f"{key}={value} outside (0, 1]")
    if "norms" in q:
        norms = q["norms"]
        ops.record(all(b >= a for a, b in zip(norms, norms[1:])),
                   "completion trace norms decrease")
        ops.record(q["converged"] and q["conviter"] < len(norms),
                   f"completion did not converge (conviter {q['conviter']})")
    if reference is None:
        return
    for key, want in reference.items():
        got = q.get(key)
        if key.startswith("map_"):
            ok = abs(got - want) <= tol_map
        elif key.startswith("purity"):
            ok = abs(got - want) <= tol_pur
        elif key == "best_rank":
            # the recorded best rank must still be best within the MAP tolerance
            ok = q["map_svd_best"] - q["svd_curve"][want - 1] <= tol_map
        else:
            ok = got == want
        ops.record(ok, f"{key}={got} differs from the recorded {want}")


def collection_facts(workload):
    """Sizes of the generated collection, computed with scipy alone."""
    if workload == "spectral-clusters":
        return {}
    import numpy as np
    from scipy import io as sio

    a = sio.mmread("out/corpus/matrix.mtx").tocsr()
    b = (a != 0).astype(np.float64)
    gram = (b @ b.T).tocsr()
    sim_nnz = int(gram.nnz - np.count_nonzero(gram.diagonal()))
    facts = {
        "words": a.shape[0], "documents": a.shape[1],
        "nnz_percent": 100.0 * a.nnz / (a.shape[0] * a.shape[1]),
        "similarity_nnz": sim_nnz,
        "similarity_density": sim_nnz / a.shape[0] ** 2,
    }
    if workload == "medline-complete":
        facts["conviter"] = _load("out/complete/trace.json")["conviter"]
    else:
        facts["conviter"] = _load("out/sweep/sweep.json")["completion_conviter"]
    return facts


def software_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------


def _stage_summary(samples):
    walls = [s[0] for s in samples]
    stages = {}
    for _, st, _, _ in samples:
        for k, v in st.items():
            stages.setdefault(k, []).append(v)
    return {"wall_s": walls, "stages": stages}


def main(spec_path):
    spec = _load(spec_path)
    os.chdir(spec["run_dir"])
    deadline = time.monotonic() + spec["budget_s"]
    import lsikit
    import lsikit.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(lsikit.__file__).resolve().parents:
        raise SystemExit(f"lsikit imported from {lsikit.__file__}, not from {src}")
    warnings.simplefilter("default")
    commands = plan(spec["workload"])
    ops = Ops()
    result = {"software": software_facts()}

    _, _, first, _ = run_pass(lsikit.cli.main, commands, ops, f"{spec['mode']} warm-up")
    result["hashes"] = first
    if spec["mode"] == "blas-threads":
        ops.record(first == spec["expect_hashes"],
                   "outputs differ between BLAS thread counts: " + ", ".join(
                       sorted(k for k in first if first[k] != spec["expect_hashes"].get(k))))
    else:
        q = {}
        if not ops.failed:
            try:
                q = quality(spec["workload"])
                check_quality(spec["workload"], q, spec.get("reference"), ops)
                result["quality"] = {k: v for k, v in q.items() if k not in ("norms", "svd_curve")}
                result["collection"] = collection_facts(spec["workload"])
            except (OSError, LookupError, TypeError, ValueError) as exc:
                ops.record(False, f"unreadable outputs: {exc!r}")
        untraced_budget = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
        samples = timed_passes(lsikit.cli.main, commands, ops, "untraced", untraced_budget,
                               deadline, first)
        result["untraced"] = _stage_summary(samples)
        if spec["trace"]:
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            try:
                traced = timed_passes(lsikit.cli.main, commands, ops, "traced", spec["seconds"] / 2,
                                      deadline, first, tracer)
            finally:
                restore()
            result["traced"] = _stage_summary(traced)
            per_pass = []
            for wall, _, spans, (rank_used, failed) in traced:
                metrics, steps = tracing.layer_metrics(spans, wall, rank_used, failed)
                calls = metrics["lsi.completion_step.calls"]
                ops.record(calls == steps, f"traced completion_step calls {calls} != "
                                           f"completion steps {steps}")
                if "norms" in q:
                    ops.record(calls == len(q["norms"]) - 1, f"traced completion_step calls {calls} "
                                                             f"!= steps in trace.json")
                per_pass.append(metrics)
            result["layers"] = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(traced[-1][2], fh)
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
