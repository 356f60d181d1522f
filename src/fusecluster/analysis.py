"""Evaluation metrics, success-rate experiments, and PCA projection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datagen import MaskSpec, apply_mask
from .model import ClusterGeometry, ObservedDataset, Partition
from .penalty import H1, PenaltySpec, default_h1_sigma
from .solver import (
    SolverConfig,
    SolveTrace,
    default_merge_tol,
    extract_clusters,
    mm_cluster,
    pairwise_distances,
)


def exact_success(found: Partition, truth: Partition) -> bool:
    """Partition equality up to label permutation."""
    if found.point_count != truth.point_count:
        raise ValueError("partitions must label the same number of points")
    return found.same_clustering(truth)


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Chance-adjusted pair-counting agreement between two partitions."""
    if a.point_count != b.point_count:
        raise ValueError("partitions must label the same number of points")
    n = a.point_count
    if n < 2:
        raise ValueError("need at least 2 points")
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
    solver's SolveTrace, ``sigma`` the h1 bandwidth (None for lp)."""

    centroids: np.ndarray
    partition: Partition
    trace: SolveTrace
    merge_tol: float
    sigma: float | None


def cluster_once(
    data: ObservedDataset,
    lam: float,
    penalty_kind: str = H1,
    sigma: float | None = None,
    lp_p: float = 0.5,
    tau: float = 1e-9,
    merge_tol: float | None = None,
    max_outer_iters: int = 200,
    objective_rel_tol: float = 1e-8,
    rho: float = 1e-8,
) -> ClusterRun:
    """Convenience wrapper: build the penalty (defaulting sigma from the
    observed data), run the solver, and extract a partition.  An unknown
    ``penalty_kind`` raises ValueError."""
    if penalty_kind != H1:
        sigma = None
    elif sigma is None:
        sigma = default_h1_sigma(data)
    penalty = PenaltySpec(
        kind=penalty_kind, sigma=1.0 if sigma is None else sigma, p=lp_p, tau=tau
    )
    config = SolverConfig(
        lam=lam,
        penalty=penalty,
        max_outer_iters=max_outer_iters,
        objective_rel_tol=objective_rel_tol,
        rho=rho,
    )
    centroids, trace = mm_cluster(data, config)
    dists = pairwise_distances(centroids.U)
    tol = default_merge_tol(centroids.U, dists) if merge_tol is None else merge_tol
    partition = extract_clusters(centroids.U, tol, dists)
    return ClusterRun(
        centroids=centroids.U, partition=partition, trace=trace, merge_tol=tol, sigma=sigma
    )


@dataclass(frozen=True)
class SuccessCurveSpec:
    """Experiment grid for success-probability curves.

    ``generator(M, seed)`` must return a fully observed instance as
    ``(data, truth, geometry)``.  Per trial, success at a given p0 means some
    lambda on the grid recovers the truth exactly.
    """

    p0_grid: tuple[float, ...]
    M_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    trials: int = 20
    base_seed: int = 0
    sigma: float | None = None
    max_outer_iters: int = 150
    objective_rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.p0_grid and self.M_grid and self.lambda_grid):
            raise ValueError("p0, M and lambda grids must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


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
    """

    def run_trial(m: int, trial: int) -> tuple[list[bool], ClusterGeometry]:
        instance_seed = _derive_seed(spec.base_seed, m, trial)
        data, truth, geometry = generator(m, instance_seed)
        successes = []
        for p_idx, p0 in enumerate(spec.p0_grid):
            mask_seed = _derive_seed(spec.base_seed, m, trial, p_idx + 1)
            masked = (
                data
                if p0 >= 1.0
                else apply_mask(data, MaskSpec(p0=p0, seed=mask_seed))
            )
            ok = False
            for lam in spec.lambda_grid:
                run = cluster_once(
                    masked,
                    lam=lam,
                    sigma=spec.sigma,
                    max_outer_iters=spec.max_outer_iters,
                    objective_rel_tol=spec.objective_rel_tol,
                )
                if exact_success(run.partition, truth):
                    ok = True
                    break
            successes.append(ok)
        return successes, geometry

    cells = []
    for m in spec.M_grid:
        results = [run_trial(m, t) for t in range(spec.trials)]
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


def _derive_seed(*parts: int) -> int:
    return int(
        np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0]
    )


def pca_project(points: np.ndarray, dims: int = 2) -> np.ndarray:
    """Project columns onto the top principal directions.

    Columns are centered first; directions are ordered by singular value and
    sign-fixed so each direction's largest-magnitude entry is positive.
    Rank-deficient inputs simply produce (near-)zero trailing components.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError("need a P x Q matrix with Q >= 2")
    dims = min(dims, points.shape[0])
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


def pca_plot_table(
    data: ObservedDataset, centroids: np.ndarray, truth: Partition | None
) -> list[tuple]:
    """Rows (point_id, truth_label, pc1, pc2, centroid_pc1, centroid_pc2)
    from a joint PCA of the filled points and their centroid estimates."""
    filled = fill_missing(data, centroids)
    n = data.point_count
    stacked = np.hstack([filled, centroids])
    coords = pca_project(stacked, dims=2)
    if coords.shape[0] < 2:
        coords = np.vstack([coords, np.zeros((2 - coords.shape[0], 2 * n))])
    rows = []
    for i in range(n):
        label = int(truth.labels[i]) if truth is not None else -1
        rows.append(
            (
                i,
                label,
                float(coords[0, i]),
                float(coords[1, i]),
                float(coords[0, n + i]),
                float(coords[1, n + i]),
            )
        )
    return rows
