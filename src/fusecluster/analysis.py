"""Evaluation metrics, success-rate experiments, and PCA projection."""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datagen import MaskSpec, apply_mask
from .model import ClusterGeometry, ObservedDataset, Partition
from .penalty import PenaltySpec, default_h1_sigma
from .solver import (
    SolverConfig,
    SolveTrace,
    default_merge_tol,
    extract_clusters,
    mm_cluster,
)


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Chance-adjusted pair-counting agreement between two partitions."""
    if a.point_count != b.point_count:
        raise ValueError("partitions must label the same number of points")
    n = a.point_count
    if n < 2:  # two partitions of one point agree
        return 1.0
    contingency = np.zeros((a.cluster_count, b.cluster_count), dtype=np.int64)
    np.add.at(contingency, (a.labels, b.labels), 1)

    def comb2(x):
        return x * (x - 1) // 2

    index = int(comb2(contingency).sum())
    sum_a = int(comb2(contingency.sum(axis=1)).sum())
    sum_b = int(comb2(contingency.sum(axis=0)).sum())
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # Both partitions trivial (all-singletons or single cluster): identical.
        return 1.0
    return (index - expected) / (max_index - expected)


@dataclass(frozen=True)
class ClusterRun:
    """One solve + extraction, with everything needed to score or plot it:
    ``centroids`` is the converged P x N surrogate matrix U, ``trace`` the
    solver's SolveTrace, ``penalty`` the :class:`PenaltySpec` it ran with."""

    centroids: np.ndarray
    partition: Partition
    trace: SolveTrace
    penalty: PenaltySpec


def cluster_once(
    data: ObservedDataset,
    lam: float,
    penalty: PenaltySpec | None = None,
    merge_tol: float | None = None,
    **settings,
) -> ClusterRun:
    """Solve with the :class:`PenaltySpec` ``penalty`` and extract a
    partition.  ``None`` means h1 at ``default_h1_sigma(data)``;
    ``settings`` are the remaining :class:`SolverConfig` fields."""
    if penalty is None:
        penalty = PenaltySpec.h1(default_h1_sigma(data))
    centroids, trace = mm_cluster(data, SolverConfig(lam=lam, penalty=penalty, **settings))
    tol = default_merge_tol(centroids.U) if merge_tol is None else merge_tol
    partition = extract_clusters(centroids.U, tol)
    return ClusterRun(centroids=centroids.U, partition=partition, trace=trace, penalty=penalty)


@dataclass(frozen=True)
class SuccessCurveSpec:
    """Experiment grid for success-probability curves.

    ``generator(M, seed)`` must return a fully observed instance as
    ``(data, truth, geometry)``.  Per trial, success at a given p0 means some
    lambda on the grid recovers the truth exactly, so the grid is a set:
    every lambda must be finite and positive, and neither the order nor
    repeats can change a cell.  ``penalty`` is the :class:`PenaltySpec` of
    every solve (``None``: h1 at each masked instance's
    ``default_h1_sigma``).
    """

    p0_grid: tuple[float, ...]
    M_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    trials: int = 20
    base_seed: int = 0
    penalty: PenaltySpec | None = None
    max_outer_iters: int = 150
    objective_rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.p0_grid and self.M_grid and self.lambda_grid):
            raise ValueError("p0, M and lambda grids must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_lambda_grid(self.lambda_grid)


def _check_lambda_grid(grid) -> None:
    """Raise ValueError naming the first lambda that is not finite and
    positive: a NaN would also leave the largest-first order undefined."""
    for lam in grid:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"lambda must be finite and positive, got {lam!r}")


@dataclass(frozen=True)
class SuccessCell:
    p0: float
    M: int
    success_rate: float
    kappa: float
    mu0: float


def success_curve(
    generator: Callable[[int, int], tuple[ObservedDataset, Partition, ClusterGeometry]],
    spec: SuccessCurveSpec,
) -> list[SuccessCell]:
    """Fraction of trials with exact recovery per (p0, M) cell.

    Each trial draws a fresh dataset; the same dataset is re-masked at every
    p0 so curves are comparable along the sampling axis.  Measured kappa and
    mu0 are averaged over trials for reporting.

    Each distinct lambda is tried once, largest first, up to the first that
    recovers the truth.  A cell counts whether any lambda succeeds, so the
    order cannot change a cell, only how many solves run.

    The (M, trial) runs are independent and run on every usable CPU
    (:func:`_map_forked`).  A trial's seeds come from ``(base_seed, M,
    trial)``, so the cells are the same for any CPU count.
    """
    lambdas = sorted(set(spec.lambda_grid), reverse=True)

    def run_trial(m: int, trial: int) -> tuple[list[bool], ClusterGeometry]:
        instance_seed = _derive_seed(spec.base_seed, m, trial)
        data, truth, geometry = generator(m, instance_seed)
        successes = []
        for p_idx, p0 in enumerate(spec.p0_grid):
            mask_seed = _derive_seed(spec.base_seed, m, trial, p_idx + 1)
            masked = apply_mask(data, MaskSpec(p0=p0, seed=mask_seed))
            ok = False
            for lam in lambdas:
                run = cluster_once(
                    masked,
                    lam=lam,
                    penalty=spec.penalty,
                    max_outer_iters=spec.max_outer_iters,
                    objective_rel_tol=spec.objective_rel_tol,
                )
                if run.partition.same_clustering(truth):
                    ok = True
                    break
            successes.append(ok)
        return successes, geometry

    tasks = [(m, t) for m in spec.M_grid for t in range(spec.trials)]
    outcomes = _map_forked(run_trial, tasks)
    cells = []
    for i, m in enumerate(spec.M_grid):
        results = outcomes[i * spec.trials : (i + 1) * spec.trials]
        kappa = float(np.mean([geom.kappa for _, geom in results]))
        mu0 = float(np.mean([geom.mu0 for _, geom in results]))
        per_p0 = np.array([flags for flags, _ in results], dtype=float)
        for p_idx, p0 in enumerate(spec.p0_grid):
            cells.append(
                SuccessCell(
                    p0=p0,
                    M=m,
                    success_rate=float(per_p0[:, p_idx].mean()),
                    kappa=kappa,
                    mu0=mu0,
                )
            )
    return cells


def _map_forked(fn, tasks: list[tuple]) -> list:
    """``[fn(*task) for task in tasks]``, spread over every usable CPU.

    The caller forks one worker per CPU of its affinity set beyond its own
    (none where ``os.sched_getaffinity`` does not exist, and none for a
    single task), deals the tasks out in turn and runs its own share.  A
    worker sends back its results, or its first error, pickled through a
    pipe and leaves by ``os._exit``.  The error of the lowest task is
    raised, the one the serial loop would raise, and every child is reaped
    before the call returns.  Forked workers see the caller's closures and
    patched modules.  A task's result depends only on ``fn`` and the task,
    never on the CPU count; only ``fn``'s side effects stay in the process
    that ran it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: run serially
        cpus = 1
    ways = max(1, min(cpus, len(tasks)))
    shares = [range(k, len(tasks), ways) for k in range(ways)]
    children, done = [], False
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, tasks, share, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        outcomes = [_run_share(fn, tasks, shares[0])]
        for pid, reader in children:
            payload = reader.read()
            if not payload:
                raise RuntimeError(f"grid worker {pid} exited without a result")
            results, error = pickle.loads(payload)
            if error is not None:  # the worker's traceback, as text
                _, exc, text = error
                exc.__cause__ = RuntimeError(f"in grid worker {pid}:\n{text}")
            outcomes.append((results, error))
        done = True
    finally:
        for pid, reader in children:
            reader.close()
            if not done:  # the caller is leaving early: stop the workers
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    out = [None] * len(tasks)
    for share, (results, _) in zip(shares, outcomes):
        for k, result in zip(share, results):
            out[k] = result
    return out


def _run_share(fn, tasks, share):
    """``fn`` over the tasks of ``share`` in order, up to the first error:
    the results, and ``(task index, error, traceback text)`` or None."""
    results = []
    for k in share:
        try:
            results.append(fn(*tasks[k]))
        except Exception as exc:
            return results, (k, exc, traceback.format_exc())
    return results, None


def _worker(fn, tasks, share, write_fd):
    """A forked worker's whole life: run ``share``, write the pickled
    outcome to ``write_fd`` and exit, without running the caller's
    cleanup.  A failure to send is printed and leaves the pipe empty."""
    status = 1
    try:
        payload = pickle.dumps(_run_share(fn, tasks, share))
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        status = 0
    except BaseException:  # not re-raised: a fork must never return
        traceback.print_exc()  # into the caller's frames
        sys.stderr.flush()
    finally:
        os._exit(status)


def _derive_seed(*parts: int) -> int:
    return int(
        np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0]
    )


def pca_project(points: np.ndarray) -> np.ndarray:
    """Project columns onto the top two principal directions: a 2 x Q
    array (1 x Q when P = 1).

    Columns are centered first; directions are ordered by singular value and
    sign-fixed so each direction's largest-magnitude entry is positive.
    Rank-deficient inputs simply produce (near-)zero trailing components.
    """
    # The row mean and the SVD round by layout; a raw matrix may have any.
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError("need a P x Q matrix with Q >= 2")
    dims = min(2, points.shape[0])
    centered = points - points.mean(axis=1, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    coords = s[:dims, None] * vt[:dims]
    for k in range(dims):
        direction = u[:, k]
        if direction[np.argmax(np.abs(direction))] < 0:
            coords[k] = -coords[k]
    return coords


def fill_missing(data: ObservedDataset, centroids: np.ndarray) -> np.ndarray:
    """Complete the data matrix for visualization: unobserved entries come
    from the converged centroids."""
    return np.where(data.mask, data.values, centroids)


# The columns of pca_plot_table's rows, in order.
PCA_COLUMNS = ("point_id", "truth_label", "pc1", "pc2", "centroid_pc1", "centroid_pc2")


def pca_plot_table(
    data: ObservedDataset, centroids: np.ndarray, truth: Partition | None
) -> list[tuple]:
    """Rows of PCA_COLUMNS from a joint PCA of the filled points and their
    centroid estimates; truth_label is -1 without a truth."""
    filled = fill_missing(data, centroids)
    n = data.point_count
    stacked = np.hstack([filled, centroids])
    coords = pca_project(stacked)
    if coords.shape[0] < 2:
        coords = np.vstack([coords, np.zeros((2 - coords.shape[0], 2 * n))])
    labels = truth.labels.tolist() if truth is not None else [-1] * n
    filled_xy, centroid_xy = coords[:, :n].tolist(), coords[:, n:].tolist()
    return list(zip(range(n), labels, *filled_xy, *centroid_xy))
