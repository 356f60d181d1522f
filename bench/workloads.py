"""The benchmark's workloads: input generation, CLI argv and output checks.

Inputs come only from the run's seed.  Invocation ``i`` of a run gets its
own input, derived from ``(seed, i)``, so a run's median averages over
several datasets and the run-to-run spread does not hang on one draw.  The
CLI always runs with the work directory as its current directory and
relative paths, so an output's bytes do not depend on where the checkout is.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Exact recovery: both partitions agree up to label names.
ARI_EXACT = 1.0
# The descent guarantee as the package states it (solver.mm_cluster's
# MajorizationError and acceptance criterion 4): an objective may exceed its
# predecessor only by this relative rounding slack.  At convergence the
# objective is re-evaluated at an unchanged point and can move by an ulp.
DESCENT_SLACK = 1e-10


def sub_seed(seed: int, index: int) -> int:
    """CLI ``--seed`` for invocation ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one invocation produced; it passed when no check found a problem."""

    problems: list[str] = field(default_factory=list)
    success_rate: float = 0.0
    ari: float | None = None
    sha256: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def body_sha256(path: str) -> str:
    """sha256 of a file below its leading ``#`` comment header."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        in_header = True
        for line in fh:
            if in_header and line.startswith(b"#"):
                continue
            in_header = False
            digest.update(line)
    return digest.hexdigest()


def read_table(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def adjusted_rand_index(a, b) -> float:
    """ARI of two label vectors, written here so the check does not rely on
    the package it checks."""
    a = np.unique(np.asarray(a), return_inverse=True)[1]
    b = np.unique(np.asarray(b), return_inverse=True)[1]
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    index = pairs(table)
    sum_a, sum_b = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sum_a * sum_b / (a.size * (a.size - 1) / 2)
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else (index - expected) / (top - expected)


class Workload:
    name = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, index: int, workdir: str) -> list[str]:
        """Write invocation ``index``'s inputs under ``workdir``; return argv."""
        raise NotImplementedError

    def check(self, index: int, workdir: str, returncode) -> Outcome:
        out_dir = os.path.join(workdir, self.out_dir(index))
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        missing = [n for n in self.outputs if not os.path.exists(os.path.join(out_dir, n))]
        if missing:
            return Outcome(problems + [f"missing outputs: {missing}"])
        outcome = self.check_outputs(index, out_dir)
        outcome.problems[:0] = problems
        outcome.sha256 = {n: body_sha256(os.path.join(out_dir, n)) for n in self.outputs}
        return outcome

    def check_outputs(self, index: int, out_dir: str) -> Outcome:
        raise NotImplementedError

    def out_dir(self, index: int) -> str:
        return os.path.join("out", str(index))

    def common_argv(self, index: int) -> list[str]:
        return ["--seed", str(sub_seed(self.seed, index)), "--out-dir", self.out_dir(index)]


class GridFig3a(Workload):
    name = "grid-fig3a"
    outputs = ("fig3a_success.csv",)
    trials = 2
    p0_grid = tuple(round(0.2 + 0.1 * i, 6) for i in range(9))
    m_grid = (10, 50)

    @property
    def cells(self) -> int:
        return self.trials * len(self.p0_grid) * len(self.m_grid)

    def prepare(self, index, workdir):
        return ["simulate", "--preset", "fig3a", "--trials", str(self.trials)] + (
            self.common_argv(index)
        )

    def check_outputs(self, index, out_dir):
        rows = read_table(os.path.join(out_dir, "fig3a_success.csv"))
        cells = {(round(float(r["p0"]), 6), int(r["M"])): float(r["success_rate"]) for r in rows}
        problems = []
        expected = {(p0, m) for p0 in self.p0_grid for m in self.m_grid}
        if len(rows) != len(expected) or set(cells) != expected:
            problems.append(f"grid cells {sorted(cells)} != {sorted(expected)}")
        for m in self.m_grid:
            if cells.get((1.0, m)) != 1.0:
                problems.append(f"success_rate at p0=1.0, M={m} is {cells.get((1.0, m))}")
        rates = list(cells.values())
        return Outcome(problems, success_rate=float(np.mean(rates)) if rates else 0.0)


class _ClusterWorkload(Workload):
    """Three Gaussian clusters on block centers (the fig4-dataset1
    geometry: P = 50, centers 6 apart per block, variance 0.1), each entry
    observed with probability P0, written as a labeled CSV."""

    outputs = ("labels.csv", "centroids.csv", "trace.csv")
    K, P, P0, SCALE, VARIANCE = 3, 50, 0.6, 6.0, 0.1
    N = 0
    penalty_argv: tuple[str, ...] = ()

    def _draw(self, index):
        rng = np.random.default_rng([self.seed, index])
        m = self.N // self.K
        centers = np.zeros((self.K, self.P))
        bounds = np.linspace(0, self.P, self.K + 1).astype(int)
        for k in range(self.K):
            centers[k, bounds[k] : bounds[k + 1]] = self.SCALE
        noise = rng.normal(0.0, np.sqrt(self.VARIANCE), size=(self.K, m, self.P))
        points = (centers[:, None, :] + noise).reshape(self.K * m, self.P)
        labels = np.repeat(np.arange(self.K), m)
        order = rng.permutation(self.K * m)
        observed = rng.random(points.shape) < self.P0
        return points[order], labels[order], observed

    def prepare(self, index, workdir):
        points, labels, observed = self._draw(index)
        rel = os.path.join("in", f"{index}.csv")
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        with open(os.path.join(workdir, rel), "w") as fh:
            for row, seen, label in zip(points, observed, labels):
                fields = [repr(float(v)) if s else "" for v, s in zip(row, seen)]
                fh.write(",".join(fields) + f",{label}\n")
        return (
            ["cluster", "--input", rel, "--labeled"]
            + list(self.penalty_argv)
            + self.common_argv(index)
        )

    def check_outputs(self, index, out_dir):
        problems = []
        truth = self._draw(index)[1]
        rows = read_table(os.path.join(out_dir, "labels.csv"))
        ids = [int(r["point_id"]) for r in rows]
        ari = float("nan")
        if ids != list(range(self.N)):
            problems.append(f"{len(rows)} label rows for {self.N} points")
        else:
            ari = adjusted_rand_index([int(r["label"]) for r in rows], truth)
            if ari != ARI_EXACT:
                problems.append(f"ARI {ari} != {ARI_EXACT}")
        objectives = [
            float(r["objective"]) for r in read_table(os.path.join(out_dir, "trace.csv"))
        ]
        rises = [
            i
            for i in range(1, len(objectives))
            if objectives[i] > objectives[i - 1] + DESCENT_SLACK * max(abs(objectives[i - 1]), 1.0)
        ]
        if not objectives or rises:
            problems.append(f"objective trace rises at iterations {rises}")
        exact = 1.0 if ari == ARI_EXACT else 0.0
        return Outcome(problems, success_rate=exact, ari=ari)


class ClusterH1(_ClusterWorkload):
    name = "cluster-h1"
    N = 1500
    penalty_argv = ("--penalty", "h1", "--lambda", "4", "--sigma", "2")


class ClusterLp(_ClusterWorkload):
    name = "cluster-lp"
    N = 600
    penalty_argv = ("--penalty", "lp", "--p", "0.5", "--lambda", "0.05")


class OracleCheck(Workload):
    name = "oracle-check"
    outputs = ("oracle_check.json",)
    # A quarter of the CLI's 2000 trials: the interpreter-bound oracle feels
    # the host's speed swings most, and short invocations let the reference
    # kernel passes around each one track them (see hostspeed.py).
    trials = 500

    def prepare(self, index, workdir):
        return ["oracle-check", "--trials", str(self.trials)] + self.common_argv(index)

    def check_outputs(self, index, out_dir):
        with open(os.path.join(out_dir, "oracle_check.json")) as fh:
            report = json.load(fh)
        problems = [] if report.get("all_ok") is True else ["oracle_check.json: all_ok is not true"]
        # The exhaustive solver's recovery rate: trials where the truth is
        # the unique minimizer.
        rate = 1.0 - float(report.get("truth_defeat_rate", 1.0))
        return Outcome(problems, success_rate=rate)


WORKLOADS = {w.name: w for w in (GridFig3a, ClusterH1, ClusterLp, OracleCheck)}
