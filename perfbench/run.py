"""lsikit benchmark: CLI pipelines on deterministic synthetic inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another.
Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Workloads:

``adi-sweep``
    ADI-size collection: corpus build, SVD index and eval, rank sweep
    1:40, bipartite-SVD and NMF clustering.
``medline-complete``
    Medline-scale collection: corpus build, raw index and eval,
    completion index and eval.
``spectral-clusters``
    Gaussian-kernel spectral clustering of two rings and two moons.

Each run generates the inputs from the seed, times fresh-interpreter
set-up several times, then starts one workload process that runs the
commands pass after pass for ``S`` seconds (half untraced, half traced
with ``--trace 1``).  Every pass's outputs are checked, and must be
byte-identical to the first pass; ``adi-sweep`` is also re-run with one
BLAS thread and must give the same bytes.  The last line of standard
output is the JSON result; the lines before it are a readable report
of every metric.  The full record (machine facts, every sample, every
check) is written to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("adi-sweep", "medline-complete", "spectral-clusters")
SETUP_REPEATS = 5
CLOUD_POINTS = 100        # points per ring / moon
CLOUD_NOISE = 0.3
RUN_LIMIT_S = 170         # hard stop for everything a run starts

# end-to-end metrics of BENCHMARK.json, by name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import smartgen  # noqa: E402


def machine_facts(nproc):
    facts = {"nproc": nproc, "cpu_model": None, "cgroup_cpu_max": None,
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/unified/cpu.max"):
        try:
            facts["cgroup_cpu_max"] = Path(path).read_text().strip()
            break
        except OSError:
            continue
    else:
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
            facts["cgroup_cpu_max"] = f"{'max' if quota == '-1' else quota} {period} (cgroup v1)"
        except OSError:
            pass
    return facts


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def generate(workload, seed, in_dir):
    if workload == "adi-sweep":
        return smartgen.write_collection(smartgen.ADI, seed, in_dir, "ADI")
    if workload == "medline-complete":
        return smartgen.write_collection(smartgen.MEDLINE, seed, in_dir, "MEDLINE")
    return smartgen.write_clouds(seed, in_dir, CLOUD_POINTS, CLOUD_NOISE)


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    return env


def run_child(argv, env, cwd, timeout):
    """Run a child to completion; its standard output joins our standard error."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {argv[1]} did not finish within {timeout:.0f} s")


def measure_setup(env, cwd, deadline):
    """Fresh interpreter until ``import lsikit`` and ``build_parser()`` are
    done.  The child reads the system-wide monotonic clock itself, so the
    figure excludes interpreter teardown and any polling delay here."""
    code = ("import sys, time; import lsikit.cli; lsikit.cli.build_parser(); "
            "print(time.monotonic() - float(sys.argv[1]))")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        try:
            done = subprocess.run([sys.executable, "-c", code, repr(start)], env=env, cwd=cwd,
                                  stdout=subprocess.PIPE, timeout=deadline - start, check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise SystemExit(f"perfbench: lsikit does not import from src/: {exc}") from None
        times.append(float(done.stdout))
    return times


def run_workload(spec, run_dir, threads, deadline):
    spec_path = run_dir / f"spec-{spec['mode']}.json"
    spec = dict(spec, result=str(run_dir / f"result-{spec['mode']}.json"),
                budget_s=deadline - time.monotonic() - 5)
    spec_path.write_text(json.dumps(spec))
    code = run_child([sys.executable, str(HERE / "workload.py"), str(spec_path)],
                     child_env(threads), HERE, deadline - time.monotonic())
    if code != 0:
        raise SystemExit(f"perfbench: workload process exited with {code}")
    return json.loads(Path(spec["result"]).read_text())


def high(values):
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    values = sorted(values)
    n = len(values)
    if n < 20:
        return "max", values[-1]
    return f"p{100 * (n - 10) // n}", values[n - 11]


def report_line(name, unit, values):
    label, top = high(values)
    med = statistics.median(values)
    return f"{name:<18} {med:12.6g} {unit:<9} ({label} {top:.6g}, n={len(values)})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lsikit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lsikit sources under {SRC}")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(argparse.Namespace(**dict(vars(args), workload=workload)))
    return 0


def run_one(args):
    """One run of one workload; prints its report and, last, its JSON result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    bench_dir = ROOT / ".bench_run"
    run_dir = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    try:
        generated = generate(args.workload, args.seed, run_dir / "in")
        setup = measure_setup(child_env(nproc), run_dir, deadline)
        references = json.loads((HERE / "reference.json").read_text())
        spec = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "mode": "main", "run_dir": str(run_dir), "src": str(SRC),
            "reference": references.get(args.workload, {}).get(str(args.seed)),
            "spans": str(run_dir / "spans.json"),
        }
        main_result = run_workload(spec, run_dir, nproc, deadline)
        attempted, failed = main_result["attempted"], list(main_result["failed"])
        blas_check = "not run"
        if args.workload == "adi-sweep" and not args.trace and nproc > 1:
            one = run_workload(dict(spec, mode="blas-threads", expect_hashes=main_result["hashes"]),
                               run_dir, 1, deadline)
            attempted += one["attempted"]
            failed += one["failed"]
            blas_check = f"outputs identical at 1 and {nproc} BLAS threads" if not one["failed"] \
                else "outputs differ between BLAS thread counts"
        if args.trace:
            spans_out = bench_dir / "results" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(spec["spans"], spans_out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = main_result["untraced"]
    stages = untraced["stages"]
    quality = main_result.get("quality", {})
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"closed loop, 1 client, {len(untraced['wall_s'])} timed passes"]
    lines.append(report_line("wall_s", "s", untraced["wall_s"]))
    lines.append(report_line("setup_s", "s", setup))
    for stage, name in (("index", "index_s"), ("eval", "eval_s"), ("sweep", "sweep_s"),
                        ("cluster", "cluster_s")):
        if stage in stages:
            lines.append(report_line(name, "s", stages[stage]))
    lines.append(f"{'peak_rss_mb':<18} {main_result['peak_rss_mb']:12.6g} MB")
    lines.append(f"{'ops_failed_frac':<18} {len(failed) / attempted:12.6g} fraction "
                 f"({len(failed)} of {attempted} ops)")
    for key, unit in (("map_svd_best", "11-pt AP"), ("map_complete", "11-pt AP"),
                      ("purity", "fraction")):
        if key in quality:
            lines.append(f"{key:<18} {quality[key]:12.6g} {unit}")
    facts = machine_facts(nproc)
    facts.update(main_result["software"], git_commit=git_commit(), seed=args.seed,
                 blas_threads_check=blas_check)
    lines.append("machine " + json.dumps(facts, sort_keys=True))
    if main_result.get("collection"):
        lines.append("collection " + json.dumps(main_result["collection"], sort_keys=True))

    if args.trace:
        layers = dict(main_result["layers"])
        layers["trace.overhead_s"] = (statistics.median(main_result["traced"]["wall_s"])
                                      - statistics.median(untraced["wall_s"]))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        for k, m in metrics.items():
            lines.append(f"{k:<46} {m['value']:14.6g} {m['unit']}")
    else:
        values = {"wall_s": statistics.median(untraced["wall_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": main_result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "generated": generated,
              "setup_s": setup, "failed": failed, "attempted": attempted, "workload_result": main_result}
    out = bench_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    for line in lines:
        print(line)
    for what in failed:
        print(f"FAILED: {what}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}), flush=True)


def layer_unit(name):
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("_frac", "density", "per_index")):
        return "ratio"
    if name.endswith("bytes") or "bytes_" in name:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
