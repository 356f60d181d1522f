"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

Not collected by the package's own test run (the file name does not match
``test_*.py``); it runs each workload a few times, under a minute in all.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

import metrics
import run
from child import run_invocations
from tracer import PATCHES, Span, Tracer, installed, layer_totals
from workloads import WORKLOADS, OracleCheck

sys.path.insert(0, run.SRC)


def test_self_time_with_nested_spans_on_two_threads():
    # Thread 1: outer [0, 10] holds inner [2, 5] and inner [6, 7].
    # Thread 2: outer [1, 4] holds inner [1.5, 3]; it overlaps thread 1 in
    # time but must not subtract from thread 1's outer.
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 1, 0),
        Span(1, "inner", 2.0, 5.0, 0, 1, 0),
        Span(2, "inner", 6.0, 7.0, 0, 1, 0),
        Span(3, "outer", 1.0, 4.0, None, 2, 0),
        Span(4, "inner", 1.5, 3.0, 3, 2, 0),
    ]
    totals = layer_totals(spans)
    assert totals["outer"].calls == 2
    assert totals["outer"].total_s == pytest.approx(13.0)
    assert totals["outer"].self_s == pytest.approx((10 - 3 - 1) + (3 - 1.5))
    assert totals["inner"].calls == 3
    assert totals["inner"].self_s == pytest.approx(3 + 1 + 1.5)


def test_recorded_parents_stay_on_their_thread():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def inner():
        time.sleep(0.01)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        both_inside.wait()
        traced_inner()
        both_inside.wait()

    traced_outer = tracer.wrap("outer", outer)
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s.span_id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    totals = layer_totals(tracer.spans)
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].total_s - totals["inner"].total_s
    )


def _originals():
    return {
        (p.namespace, p.attr): getattr(importlib.import_module(p.namespace), p.attr)
        for p in PATCHES
    }


def test_wrappers_restore_the_original_functions():
    before = _originals()
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            during = _originals()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_wrapped_name_records_a_call_on_its_workload(name, tmp_path, monkeypatch):
    # Spans are named by where they were patched, so a patch in the wrong
    # namespace shows up as a name with no calls.
    patches = [dataclasses.replace(p, span=f"{p.namespace}:{p.attr}") for p in PATCHES]
    monkeypatch.chdir(tmp_path)
    import fusecluster.cli as cli

    workload = WORKLOADS[name](seed=1)
    tracer = Tracer()
    with installed(tracer, patches):
        samples = run_invocations(workload, cli, seconds=0.0, tracer=tracer)
    assert all(s["ok"] for s in samples), [s["problems"] for s in samples]
    called = {s.name for s in tracer.spans}
    expected = {p.span for p in patches if name in p.workloads}
    assert expected - called == set()


class _FakeCli:
    """Stands in for fusecluster.cli: writes an oracle report per call."""

    def __init__(self, behaviours):
        self.behaviours = list(behaviours)

    def main(self, argv):
        out_dir = argv[argv.index("--out-dir") + 1]
        os.makedirs(out_dir, exist_ok=True)
        behaviour = self.behaviours.pop(0)
        if behaviour == "raise":
            raise RuntimeError("forced failure")
        report = {"all_ok": behaviour != "bad-output", "truth_defeat_rate": 0.0}
        with open(os.path.join(out_dir, "oracle_check.json"), "w") as fh:
            json.dump(report, fh)
        return 2 if behaviour == "exit-2" else 0


def test_forced_failures_count_toward_failed_frac(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fake = _FakeCli(["ok", "raise", "exit-2"])
    samples = run_invocations(OracleCheck(seed=1), fake, seconds=0.0)
    assert [s["ok"] for s in samples] == [True, False, False]
    assert all(s["ref_s"] > 0 for s in samples)
    fake = _FakeCli(["bad-output", "ok", "ok"])
    samples += run_invocations(OracleCheck(seed=1), fake, seconds=0.0)
    line = run.result_line(samples, {"wall_s": 1.0})
    assert (line["attempted"], line["failed"], line["correct"]) == (6, 3, False)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
