"""Record the reference quality figures that every benchmark run checks.

    python3 perfbench/record_reference.py FIRST LAST

Runs one pass of every workload for each seed FIRST..LAST (inclusive)
with the lsikit sources of this checkout and writes the figures to
``perfbench/reference.json``, keeping entries for other seeds.  Run it
only on code whose results are the accepted reference; a run on a seed
without an entry falls back to the sanity bands in
``workload.check_quality``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import lsikit.cli  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

KEYS = {
    "adi-sweep": ("map_svd_best", "best_rank", "map_complete", "conviter", "map_svd_index",
                  "map_nmf", "purity_bipartite", "purity_nmf"),
    "medline-complete": ("map_raw", "map_complete", "conviter", "converged"),
    "spectral-clusters": ("purity_rings", "purity_moons"),
}


def record(name, seed, work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)
    run.generate(name, seed, work_dir / "in")
    os.chdir(work_dir)
    ops = workload.Ops()
    workload.run_pass(lsikit.cli.main, workload.plan(name), ops, f"{name} seed {seed}")
    if ops.failed:
        raise SystemExit(f"{name} seed {seed}: {ops.failed}")
    q = workload.quality(name)
    return {k: q[k] for k in KEYS[name]}


def main(first, last):
    warnings.simplefilter("ignore")
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work_dir = HERE.parent / ".bench_run" / "reference"
    try:
        for seed in range(first, last + 1):
            for name in run.WORKLOADS:
                table.setdefault(name, {})[str(seed)] = record(name, seed, work_dir)
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        os.chdir(HERE.parent)
        shutil.rmtree(work_dir, ignore_errors=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
