"""Metric definitions and how each is derived from a run's samples and spans.

The names, units and directions here are the ones ``BENCHMARK.json`` lists;
the self-tests check that the two agree.
"""

from __future__ import annotations

import statistics

import numpy as np

from hostspeed import corrected
from tracer import layer_totals

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate_mean", "ratio", "higher"),
)

PER_LAYER = (
    ("solver.mm_cluster.calls", "count", "lower"),
    ("solver.mm_cluster.self_s", "s", "lower"),
    ("solver.mm_cluster.latency_ms.p50", "ms", "lower"),
    ("solver.mm_cluster.latency_ms.p90", "ms", "lower"),
    ("solver.mm_cluster.outer_iters", "count", "lower"),
    ("solver.mm_cluster.nonconverged", "count", "lower"),
    ("solver.pairwise_distances.calls", "count", "lower"),
    ("solver.pairwise_distances.self_s", "s", "lower"),
    ("solver.extract_clusters.self_s", "s", "lower"),
    ("solver.default_merge_tol.self_s", "s", "lower"),
    ("penalty.phi.self_s", "s", "lower"),
    ("penalty.weight.self_s", "s", "lower"),
    ("penalty.default_h1_sigma.self_s", "s", "lower"),
    ("analysis.success_curve.self_s", "s", "lower"),
    ("analysis.cluster_once.calls", "count", "lower"),
    ("analysis.cluster_once.self_s", "s", "lower"),
    ("analysis.lambda_attempts_per_cell", "ratio", "lower"),
    ("proc.cpu_over_wall", "ratio", "lower"),
    ("datagen.gen_uniform_kappa.self_s", "s", "lower"),
    ("datagen.bisection_steps", "count", "lower"),
    ("datagen.apply_mask.self_s", "s", "lower"),
    ("model.estimate_geometry.self_s", "s", "lower"),
    ("oracle.l0_solve.calls", "count", "lower"),
    ("oracle.l0_solve.self_s", "s", "lower"),
    ("oracle.partitions_enumerated", "count", "lower"),
    ("oracle.partitions_per_s", "1/s", "higher"),
    ("oracle.group_feasible.calls", "count", "lower"),
    ("oracle.group_feasible.self_s", "s", "lower"),
    ("oracle.monte_carlo_bound_check.self_s", "s", "lower"),
    ("theory.self_s", "s", "lower"),
    ("dataio.read_points_csv.self_s", "s", "lower"),
    ("dataio.write_points_csv.self_s", "s", "lower"),
    ("dataio.write_table_csv.self_s", "s", "lower"),
    ("dataio.bytes_written", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(setups, child_result) -> dict[str, float]:
    """Times are corrected to the nominal host speed (``hostspeed``):
    ``setups`` holds (seconds, reference seconds) pairs."""
    samples = child_result["samples"]
    return {
        "setup_s": median([corrected(t, ref) for t, ref in setups]),
        "wall_s": median([corrected(s["wall_s"], s["ref_s"]) for s in samples]),
        "cpu_s": median([corrected(s["cpu_s"], s["ref_s"]) for s in samples]),
        "peak_rss_mb": child_result["peak_rss_mb"],
        # A mean, not a median: rates are coarse (k/trials per cell) and
        # each invocation has its own input.
        "success_rate_mean": float(np.mean([s["success_rate"] for s in samples])),
    }


def invocation_layers(spans, counters, cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (0 where a layer is idle)."""
    totals = layer_totals(spans)
    names = {span.span_id: span.name for span in spans}

    def get(name, field):
        total = totals.get(name)
        return float(getattr(total, field)) if total else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = get(layer, field)
    mm = [s.duration for s in spans if s.name == "solver.mm_cluster"]
    out["solver.mm_cluster.latency_ms.p50"] = 1e3 * float(np.percentile(mm, 50)) if mm else 0.0
    out["solver.mm_cluster.latency_ms.p90"] = 1e3 * float(np.percentile(mm, 90)) if mm else 0.0
    for name in (
        "solver.mm_cluster.outer_iters",
        "solver.mm_cluster.nonconverged",
        "oracle.partitions_enumerated",
        "dataio.bytes_written",
    ):
        out[name] = float(counters.get(name, 0))
    attempts = get("analysis.cluster_once", "calls")
    out["analysis.lambda_attempts_per_cell"] = attempts / cells if cells else 0.0
    generations = get("datagen.gen_uniform_kappa", "calls")
    bisection = sum(
        1
        for s in spans
        if s.name == "model.estimate_geometry"
        and names.get(s.parent) == "datagen.gen_uniform_kappa"
    )
    out["datagen.bisection_steps"] = bisection / generations if generations else 0.0
    l0_time = get("oracle.l0_solve", "total_s")
    out["oracle.partitions_per_s"] = (
        out["oracle.partitions_enumerated"] / l0_time if l0_time else 0.0
    )
    out["theory.self_s"] = sum(t.self_s for n, t in totals.items() if n.startswith("theory."))
    return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER}


def per_layer(untraced, traced) -> dict[str, float]:
    """Medians over traced invocations, plus the two process-level ratios
    that come from the untraced run."""
    layers = traced["layers"]
    out = {
        name: median([inv[name] for inv in layers])
        for name, _, _ in PER_LAYER
        if name not in ("proc.cpu_over_wall", "trace.overhead_frac")
    }
    plain = untraced["samples"]
    out["proc.cpu_over_wall"] = median([s["cpu_s"] / s["wall_s"] for s in plain])
    # Paired by input: traced and untraced invocation i ran the same data.
    plain_wall = {s["index"]: s["wall_s"] for s in plain}
    ratios = [
        s["wall_s"] / plain_wall[s["index"]]
        for s in traced["samples"]
        if s["index"] in plain_wall
    ]
    out["trace.overhead_frac"] = median(ratios) - 1.0
    return {name: out[name] for name, _, _ in PER_LAYER}
