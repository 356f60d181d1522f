"""The benchmark under bench/ reaches into the package by name: its tracer
replaces module attributes, and its child process parses each workload's argv
with the CLI parser to read ``--threads``.  bench/selftest.py checks this but
is not part of this suite, so these tests keep a package change from breaking
the benchmark unnoticed.  The bench modules are loaded read-only."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fusecluster import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    assert tracer.PATCHES
    for patch in tracer.PATCHES:
        module = importlib.import_module(patch.namespace)
        assert callable(getattr(module, patch.attr)), patch


def test_every_workload_argv_parses(monkeypatch, tmp_path):
    workloads = load_bench_module("workloads", monkeypatch)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        argv = workload(0).prepare(0, str(tmp_path / name))
        assert cli.build_parser().parse_args(argv).threads >= 1, name
