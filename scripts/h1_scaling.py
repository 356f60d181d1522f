#!/usr/bin/env python3
"""Time ``mm_cluster`` on the ``cluster-h1`` geometry at several N, for two
source trees, and print a table of wall time and peak RSS.

    h1_scaling.py PARENT_SRC CHANGE_SRC [--n 1500 3000 6000 12000] [--rounds 2]

Each measurement is a fresh interpreter that imports ``fusecluster`` from
the given ``src`` directory, draws input 0 of seed 7 of the benchmark's
``cluster-h1`` workload (bench/workloads.py) with its N replaced, and runs
``mm_cluster`` with the workload's settings (h1, lambda 4, sigma 2): once to
warm up below N = 6000, then ``max(1, 6000 // N)`` timed runs, whose median
it reports with the process's peak RSS.  The two trees alternate which runs
first in each round; the table gives each side's median over rounds.  One
process runs at a time: at N = 12000 the weight matrix alone is 1.15 GB.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

CHILD = """
import importlib.util, json, resource, statistics, sys, time
sys.dont_write_bytecode = True
src, workloads_path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)
spec = importlib.util.spec_from_file_location("workloads", workloads_path)
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from fusecluster import ObservedDataset, PenaltySpec, SolverConfig, mm_cluster
scaled = type("Scaled", (workloads.ClusterH1,), {"N": n})(7)
points, _, observed = scaled._draw(0)
data = ObservedDataset(points.T, observed.T)
config = SolverConfig(4.0, PenaltySpec.h1(2.0))
if n < 6000:
    mm_cluster(data, config)
times = []
for _ in range(max(1, 6000 // n)):
    start = time.perf_counter()
    _, trace = mm_cluster(data, config)
    times.append(time.perf_counter() - start)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": statistics.median(times), "rss_mb": rss_mb,
                  "blocks": list(trace.blocks), "cg": list(trace.cg_iterations)}))
"""


def measure(src, n):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(src).resolve()), str(WORKLOADS), str(n)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--n", type=int, nargs="+", default=[1500, 3000, 6000, 12000])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_src, "change": args.change_src}
    print("| N | parent time | change time | parent peak RSS | change peak RSS |")
    print("|---|---|---|---|---|")
    for n in args.n:
        runs = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                runs[side].append(measure(sides[side], n))
                print(f"N = {n}, round {r}, {side}: {runs[side][-1]}", file=sys.stderr)
        wall = {s: statistics.median(m["wall_s"] for m in runs[s]) for s in sides}
        rss = {s: statistics.median(m["rss_mb"] for m in runs[s]) for s in sides}
        print(f"| {n} | {wall['parent']:.3f} s | {wall['change']:.3f} s"
              f" | {rss['parent']:.0f} MB | {rss['change']:.0f} MB |", flush=True)


if __name__ == "__main__":
    main()
