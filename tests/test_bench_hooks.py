"""The benchmark under bench/ reaches into the package by name: its tracer
replaces module attributes and expects every solve to call the solver and
analysis names it traces and every bound check the oracle names, and its
child process parses each workload's argv with the CLI parser to read
``--threads``.  bench/selftest.py checks this but is not part of this suite,
so these tests keep a package change from breaking the benchmark unnoticed.
The bench modules are loaded read-only."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fusecluster import analysis, cli, oracle, solver
from fusecluster.datagen import gen_uniform_kappa
from fusecluster.model import ObservedDataset
from fusecluster.penalty import PenaltySpec

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


@pytest.mark.parametrize(
    "penalty", [PenaltySpec.h1(1.0), PenaltySpec.lp(0.5)], ids=["h1", "lp"]
)
def test_every_traced_solver_name_is_called(penalty, monkeypatch):
    # A solve that stops calling a traced name would leave that layer empty
    # and fail the benchmark's own self-check.
    tracer = load_bench_module("tracer", monkeypatch)
    patches = [p for p in tracer.PATCHES if p.namespace == "fusecluster.solver"]
    assert patches
    x = np.random.default_rng(0).normal(size=(3, 12))
    x[:, :6] += 5.0
    config = solver.SolverConfig(lam=0.5, penalty=penalty, max_outer_iters=5)
    with tracer.installed(tracer.Tracer(), patches) as recorder:
        solver.mm_cluster(ObservedDataset.full(x), config)
    called = {span.name for span in recorder.spans}
    assert [p.span for p in patches if p.span not in called] == []


def small_cluster_once(penalty):
    x = np.random.default_rng(0).normal(size=(3, 12))
    x[:, :6] += 5.0
    analysis.cluster_once(ObservedDataset.full(x), 0.5, penalty, max_outer_iters=5)


def small_success_curve():
    spec = analysis.SuccessCurveSpec(
        p0_grid=(0.8,), M_grid=(3,), lambda_grid=(0.5,), trials=1, max_outer_iters=5
    )
    analysis.success_curve(lambda m, seed: gen_uniform_kappa(2, m, 6, 0.5, seed), spec)


@pytest.mark.parametrize(
    "workload, run",
    [
        ("cluster-h1", lambda: small_cluster_once(None)),
        ("cluster-lp", lambda: small_cluster_once(PenaltySpec.lp(0.5))),
        ("grid-fig3a", small_success_curve),
    ],
    ids=["cluster-h1", "cluster-lp", "grid-fig3a"],
)
def test_every_traced_analysis_name_is_called(workload, run, monkeypatch):
    # cluster_once and success_curve must call each fusecluster.analysis name
    # the workload's layers are read from.
    tracer = load_bench_module("tracer", monkeypatch)
    patches = [p for p in tracer.PATCHES if p.namespace == "fusecluster.analysis"]
    wanted = [p.span for p in patches if workload in p.workloads]
    assert wanted
    with tracer.installed(tracer.Tracer(), patches) as recorder:
        run()
    called = {span.name for span in recorder.spans}
    assert [name for name in wanted if name not in called] == []


def test_every_traced_oracle_name_is_called(monkeypatch):
    # oracle-check must record a call to each fusecluster.oracle name, the
    # search and the per-pair feasibility check among them.
    tracer = load_bench_module("tracer", monkeypatch)
    patches = [p for p in tracer.PATCHES if p.namespace == "fusecluster.oracle"]
    assert patches
    data, truth, _ = gen_uniform_kappa(2, 3, 6, 0.5, seed=0)
    with tracer.installed(tracer.Tracer(), patches) as recorder:
        oracle.monte_carlo_bound_check(data, truth, p0=0.8, trials=3, seed=0)
    called = {span.name for span in recorder.spans}
    assert [p.span for p in patches if p.span not in called] == []


def test_every_workload_argv_parses(monkeypatch, tmp_path):
    workloads = load_bench_module("workloads", monkeypatch)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        argv = workload(0).prepare(0, str(tmp_path / name))
        assert cli.build_parser().parse_args(argv).threads >= 1, name
