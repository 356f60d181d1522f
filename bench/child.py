"""One measuring process: set up, then time CLI invocations in-process.

Run by ``run.py`` in a fresh interpreter per workload, so the peak RSS it
reports belongs to one workload.  With ``--setup-only`` it stops after the
set-up (import the package, write the first input), which is what
``setup_s`` times.  Writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import metrics
import tracer as tracing
from workloads import WORKLOADS

MIN_INVOCATIONS = 3
MAX_INVOCATIONS = 200


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_invocations(workload, cli, seconds, tracer=None):
    """Invoke ``cli.main`` on fresh inputs until ``seconds`` are used up.

    Stops before an invocation that would likely end past the deadline,
    but always runs at least MIN_INVOCATIONS.  Runs in the current
    directory.  ``cli.main`` is looked up on every call so a traced
    wrapper installed on the module is the one that runs.  The reference
    kernel runs before the first invocation and after each one; a
    sample's ``ref_s`` is the mean of the two passes around it.
    """
    samples = []
    start = time.perf_counter()
    reference = hostspeed.reference_seconds()
    while len(samples) < MAX_INVOCATIONS:
        index = len(samples)
        argv = workload.prepare(index, ".")
        if tracer is not None:
            tracer.invocation = index
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            returncode = cli.main(argv)
        except Exception as exc:  # counted as a failed invocation
            returncode = f"raised {exc!r}"
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        previous, reference = reference, hostspeed.reference_seconds()
        outcome = workload.check(index, ".", returncode)
        samples.append(
            {
                "index": index,
                "argv": argv,
                "wall_s": wall,
                "cpu_s": cpu,
                "ref_s": (previous + reference) / 2,
                "ok": outcome.ok,
                "problems": outcome.problems,
                "success_rate": outcome.success_rate,
                "ari": outcome.ari,
                "sha256": outcome.sha256,
            }
        )
        typical = statistics.median(s["wall_s"] for s in samples)
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            break
    return samples


def write_spans(path, spans):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    [s.span_id, s.name, s.start, s.end, s.parent, s.thread, s.invocation]
                )
                + "\n"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    result_path = os.path.abspath(args.result)
    spans_path = os.path.abspath(args.spans) if args.spans else None
    sys.path.insert(0, os.path.abspath(args.src))
    os.chdir(args.workdir)
    import fusecluster.cli as cli

    workload = WORKLOADS[args.workload](args.seed)
    first_argv = workload.prepare(0, ".")
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        samples = run_invocations(workload, cli, args.seconds, tracer)
    result = {
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": cli.build_parser().parse_args(first_argv).threads,
    }
    if tracer is not None:
        cells = getattr(workload, "cells", 0)
        by_invocation = {}
        for span in tracer.spans:
            by_invocation.setdefault(span.invocation, []).append(span)
        result["layers"] = [
            metrics.invocation_layers(
                by_invocation.get(s["index"], []),
                {k[1]: v for k, v in tracer.counters.items() if k[0] == s["index"]},
                cells,
            )
            for s in samples
        ]
        result["span_count"] = len(tracer.spans)
        if spans_path:
            write_spans(spans_path, tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
