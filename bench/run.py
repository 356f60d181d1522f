"""fusecluster benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times CLI invocations with
nothing wrapped and reports the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced process for S/2 seconds each and reports the per-layer
metrics and the tracing overhead.  Every invocation's outputs are checked; a
nonzero exit, an exception or a failed check counts as a failed invocation.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record (every
sample, output sha256, environment) goes to ``.bench_out/``.  Exit status is
0 when every invocation passed, 1 when one failed, 2 when the benchmark
itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import hostspeed
import metrics
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# A child gets its measuring time plus this much before it is killed.
CHILD_GRACE_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """Environment for measuring processes.  BLAS pools are pinned to
    OpenBLAS's own default (one thread per core) so an inherited setting
    cannot change the program being measured."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(os.cpu_count() or 1)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, workdir, result, seconds, trace, setup_only=False, spans=None):
    cmd = [
        sys.executable,
        os.path.join(BENCH, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--src", SRC,
        "--workdir", workdir,
        "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if setup_only:
        return elapsed
    with open(result) as fh:
        return json.load(fh)


def timed_setups(args, workdir, result_file) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of each set-up; the reference is the mean
    of the kernel passes just before and just after it."""
    reference = hostspeed.reference_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds = run_child(args, workdir, result_file, args.seconds, 0, setup_only=True)
        previous, reference = reference, hostspeed.reference_seconds()
        setups.append((seconds, (previous + reference) / 2))
    return setups


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None.

    On a virtual machine, time the host gives to other guests shows up as
    steal; the share of it during a run says how much of a slow run is
    the host's doing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def environment(threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.partition("\n")
        if os.path.realpath(top) == os.path.realpath(ROOT):
            sha = head.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = 0
    package = os.path.join(SRC, "fusecluster")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                src_lines += sum(1 for _ in fh)
    pinned = child_env()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
        "cli_threads": threads,
        **{var: pinned[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child
    # is killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "fusecluster", "cli.py")):
        print(f"bench: no fusecluster sources under {SRC}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    jiffies_at_start = cpu_jiffies()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    result_file = os.path.join(workdir, "child.json")
    try:
        if args.trace:
            untraced = run_child(args, workdir, result_file, args.seconds / 2, 0)
            traced = run_child(
                args,
                workdir,
                result_file,
                args.seconds / 2,
                1,
                spans=os.path.join(OUT, f"{tag}-spans.jsonl"),
            )
            values = metrics.per_layer(untraced, traced)
            runs = [untraced, traced]
        else:
            setups = timed_setups(args, workdir, result_file)
            measured = run_child(args, workdir, result_file, args.seconds, 0)
            values = metrics.end_to_end(setups, measured)
            runs = [measured]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for run in runs for s in run["samples"]]
    failed = [s for s in samples if not s["ok"]]
    env = environment(runs[0]["threads"])
    env["loadavg_at_start"] = load_at_start
    jiffies = cpu_jiffies()
    if jiffies and jiffies_at_start and jiffies[1] > jiffies_at_start[1]:
        env["steal_frac"] = (jiffies[0] - jiffies_at_start[0]) / (jiffies[1] - jiffies_at_start[1])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": values,
        "runs": runs,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(env, sort_keys=True))
    plain = runs[0]["samples"]
    walls = sorted(s["wall_s"] for s in plain)
    print(
        f"invocations: {len(samples)} attempted, {len(failed)} failed "
        f"(failed_frac {len(failed) / len(samples):.4g}); "
        f"wall_s min/max {walls[0]:.4f}/{walls[-1]:.4f}; "
        f"host steal {env.get('steal_frac', float('nan')):.2%}"
    )
    print(
        f"uncorrected: wall_s {metrics.median(walls):.6g} s, "
        f"cpu_s {metrics.median([s['cpu_s'] for s in plain]):.6g} s; "
        f"reference kernel {metrics.median([s['ref_s'] for s in plain]):.6g} s "
        f"(nominal {hostspeed.NOMINAL_REFERENCE_S} s)"
    )
    for s in failed:
        print(f"FAILED invocation {s['index']}: {'; '.join(s['problems'])}")
    for s in runs[0]["samples"]:
        aris = "" if s["ari"] is None else f" ari={s['ari']:.6g}"
        print(f"output {s['index']}:{aris} " + " ".join(f"{k}={v}" for k, v in s["sha256"].items()))
    n = len(runs[-1]["samples"])
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, speed-corrected",
        "wall_s": f"median of {n} invocations, speed-corrected",
        "cpu_s": f"median of {n} invocations, speed-corrected",
        "peak_rss_mb": "peak of the measuring process",
        "success_rate_mean": f"mean of {n} invocations",
        "proc.cpu_over_wall": f"median of {len(runs[0]['samples'])} untraced invocations",
        "trace.overhead_frac": "median of per-input ratios",
    }
    for name, value in values.items():
        note = notes.get(name, f"median of {n} invocations")
        print(f"{name}: {value:.6g} {metrics.UNITS[name]} ({note})")
    line = result_line(samples, values)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result_line(samples, values) -> dict:
    """The final stdout object.  ``failed / attempted`` is failed_frac."""
    failed = sum(1 for s in samples if not s["ok"])
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
