"""Spans recorded from outside the package, around the calls into each layer.

The fusecluster modules import each other's functions by name, so a call is
traced by replacing the attribute in the namespace the *caller* looks it up
in (``fusecluster.analysis.mm_cluster``, not ``fusecluster.solver.mm_cluster``).
Each span is named after the module that defines the function.  Spans are
kept in memory; ``layer_totals`` turns them into calls, total and self time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    invocation: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """One traced name: where the caller looks it up, and the span name."""

    namespace: str
    attr: str
    span: str
    # Workloads on which this name must record at least one call.
    workloads: tuple[str, ...]


_GRID = "grid-fig3a"
_H1 = "cluster-h1"
_LP = "cluster-lp"
_ORACLE = "oracle-check"
_CLUSTER = (_H1, _LP)
_SOLVE = (_GRID, _H1, _LP)

PATCHES = (
    Patch("fusecluster.analysis", "mm_cluster", "solver.mm_cluster", _SOLVE),
    Patch("fusecluster.analysis", "cluster_once", "analysis.cluster_once", (_GRID,)),
    Patch("fusecluster.analysis", "apply_mask", "datagen.apply_mask", (_GRID,)),
    # Every workload passes sigma (or uses lp), so the default is never
    # computed; it stays traced so a workload that needs it shows up.
    Patch("fusecluster.analysis", "default_h1_sigma", "penalty.default_h1_sigma", ()),
    Patch("fusecluster.analysis", "extract_clusters", "solver.extract_clusters", _SOLVE),
    Patch("fusecluster.analysis", "default_merge_tol", "solver.default_merge_tol", _SOLVE),
    Patch("fusecluster.solver", "pairwise_distances", "solver.pairwise_distances", _SOLVE),
    Patch("fusecluster.solver", "phi", "penalty.phi", _SOLVE),
    Patch("fusecluster.solver", "weight", "penalty.weight", _SOLVE),
    Patch("fusecluster.oracle", "l0_solve", "oracle.l0_solve", (_ORACLE,)),
    Patch("fusecluster.oracle", "group_feasible", "oracle.group_feasible", (_ORACLE,)),
    Patch("fusecluster.oracle", "estimate_geometry", "model.estimate_geometry", (_ORACLE,)),
    Patch("fusecluster.oracle", "eta0", "theory.eta0", (_ORACLE,)),
    Patch("fusecluster.oracle", "log_gamma0", "theory.log_gamma0", (_ORACLE,)),
    Patch("fusecluster.oracle", "log_delta0", "theory.log_delta0", (_ORACLE,)),
    Patch("fusecluster.oracle", "log_beta0", "theory.log_beta0", (_ORACLE,)),
    Patch("fusecluster.datagen", "estimate_geometry", "model.estimate_geometry", (_GRID, _ORACLE)),
    Patch("fusecluster.cli", "main", "cli.main", (_GRID, _H1, _LP, _ORACLE)),
    Patch("fusecluster.cli", "success_curve", "analysis.success_curve", (_GRID,)),
    Patch("fusecluster.cli", "cluster_once", "analysis.cluster_once", _CLUSTER),
    Patch("fusecluster.cli", "adjusted_rand_index", "analysis.adjusted_rand_index", _CLUSTER),
    Patch("fusecluster.cli", "gen_uniform_kappa", "datagen.gen_uniform_kappa", (_GRID, _ORACLE)),
    Patch("fusecluster.cli", "read_points_csv", "dataio.read_points_csv", _CLUSTER),
    Patch("fusecluster.cli", "write_points_csv", "dataio.write_points_csv", _CLUSTER),
    Patch("fusecluster.cli", "write_table_csv", "dataio.write_table_csv", _SOLVE),
    Patch(
        "fusecluster.cli",
        "monte_carlo_bound_check",
        "oracle.monte_carlo_bound_check",
        (_ORACLE,),
    ),
)


class Tracer:
    """Collects spans and counters; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self.invocation = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[(self.invocation, name)] += amount

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            invocation = self.invocation
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), invocation)
                )
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced


def _count_mm_cluster(tracer, args, result):
    _, trace = result
    tracer.count("solver.mm_cluster.outer_iters", trace.iterations)
    tracer.count("solver.mm_cluster.nonconverged", 0 if trace.converged else 1)


def _count_partitions(tracer, args, result):
    tracer.count("oracle.partitions_enumerated", result.feasible_partition_count)


def _count_bytes(tracer, args, result):
    tracer.count("dataio.bytes_written", os.path.getsize(args[0]))


_COUNTERS = {
    "solver.mm_cluster": _count_mm_cluster,
    "oracle.l0_solve": _count_partitions,
    "dataio.write_points_csv": _count_bytes,
    "dataio.write_table_csv": _count_bytes,
}


@contextlib.contextmanager
def installed(tracer: Tracer, patches=PATCHES):
    """Replace each patched name with a traced wrapper; restore on exit."""
    originals = []
    try:
        for patch in patches:
            module = importlib.import_module(patch.namespace)
            original = getattr(module, patch.attr)
            originals.append((module, patch.attr, original))
            setattr(
                module,
                patch.attr,
                tracer.wrap(patch.span, original, _COUNTERS.get(patch.span)),
            )
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


@dataclass
class LayerTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_totals(spans) -> dict[str, LayerTotal]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children.  A parent is always the innermost open span of the same
    thread, so spans on a pool thread never subtract from the caller that
    is waiting for them: self time is per thread.
    """
    child_time: dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: dict[str, LayerTotal] = collections.defaultdict(LayerTotal)
    for span in spans:
        total = totals[span.name]
        total.calls += 1
        total.total_s += span.duration
        total.self_s += span.duration - child_time[span.span_id]
    return dict(totals)
