"""Exhaustive solver of the constrained pairwise-coalescence problem.

On a tiny instance this enumerates every set partition of the points, keeps
those whose groups can share a common centroid within the per-coordinate
tolerance, and returns the partitions minimizing the number of ordered
cross-group pairs (``N^2 - sum_g n_g^2``).  The search prunes a branch as
soon as a point is not pairwise compatible with every member of the block it
would join, using one bitmask per open block.  It is ground truth for the
iterative solver and for Monte-Carlo checks of the recovery bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ObservedDataset, Partition, _pairwise_reduce, estimate_geometry
from .theory import eta0, log_beta0, log_delta0, log_gamma0

ENUMERATION_MAX_POINTS = 12  # Bell(12) ~ 4.2M partitions


@dataclass(frozen=True)
class OracleResult:
    minimizers: tuple[Partition, ...]
    min_cost: int
    feasible_partition_count: int


def group_feasible(data: ObservedDataset, point_indices, epsilon: float) -> bool:
    """True when one centroid can sit within epsilon/2 of every member on
    every coordinate the member observes.

    Per feature this is an interval intersection: the observed values must
    span at most epsilon.  Features nobody in the group observes impose no
    constraint, which is exactly how two points with disjoint observations
    always remain mergeable.
    """
    idx = np.asarray(list(point_indices), dtype=int)
    if idx.size == 0:
        raise ValueError("group must be non-empty")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    vals = data.values[:, idx]
    m = data.mask[:, idx]
    vmax = np.where(m, vals, -np.inf).max(axis=1)
    vmin = np.where(m, vals, np.inf).min(axis=1)
    return bool(np.all(vmax - vmin <= epsilon))


def _compatibility_masks(data: ObservedDataset, epsilon: float) -> list[int]:
    """Bit j of entry i is set when points i and j are within epsilon on
    every feature both of them observe.  Unobserved entries are NaN, which
    ``fmax`` skips; a pair sharing no feature reduces to NaN, and
    ``NaN > epsilon`` is False, so it stays compatible."""
    x = np.where(data.mask, data.values, np.nan)
    compatible = ~(_pairwise_reduce(x, np.abs, np.fmax) > epsilon)
    return (compatible.astype(np.int64) @ (1 << np.arange(data.point_count))).tolist()


def l0_solve(data: ObservedDataset, epsilon: float) -> OracleResult:
    """Enumerate all partitions of the points (depth-first over restricted
    growth strings), prune blocks that become infeasible, and collect every
    minimum-cost feasible partition, in enumeration order.

    A block is feasible exactly when each pair of its members is: on every
    feature, the observed values span at most epsilon, and the span is the
    difference of one pair.  This holds in floating point too, because
    rounding is monotone: ``fl(x_a - x_b) <= fl(max - min)`` for any two
    members a and b.  So the search builds one pair-compatibility matrix per
    call, and each open block carries the AND of its members' rows as a
    plain Python int bitmask (N <= ENUMERATION_MAX_POINTS bits); point i may
    join a block when bit i of that mask is set.  Restricted growth strings
    label blocks in order of first occurrence, so every minimizer is
    already canonical."""
    n = data.point_count
    if n > ENUMERATION_MAX_POINTS:
        raise ValueError(
            f"oracle enumeration bound exceeded (N = {n} > {ENUMERATION_MAX_POINTS})"
        )
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")

    compatible = _compatibility_masks(data, epsilon)
    labels = [0] * n
    blocks: list[int] = []  # AND of the members' compatibility masks
    sizes: list[int] = []
    best_cost = n * n + 1
    minimizers: list[list[int]] = []
    feasible_count = 0

    def dfs(i: int, square_sum: int):
        nonlocal best_cost, minimizers, feasible_count
        if i == n:
            feasible_count += 1
            cost = n * n - square_sum
            if cost < best_cost:
                best_cost = cost
                minimizers = [labels.copy()]
            elif cost == best_cost:
                minimizers.append(labels.copy())
            return
        bit = 1 << i
        row = compatible[i]
        for b in range(len(blocks)):
            joint = blocks[b]
            if joint & bit:
                size = sizes[b]
                blocks[b] = joint & row
                sizes[b] = size + 1
                labels[i] = b
                dfs(i + 1, square_sum + 2 * size + 1)
                blocks[b] = joint
                sizes[b] = size
        # Open a fresh block for point i (always feasible on its own).
        labels[i] = len(blocks)
        blocks.append(row)
        sizes.append(1)
        dfs(i + 1, square_sum + 1)
        blocks.pop()
        sizes.pop()

    dfs(0, 0)
    return OracleResult(
        minimizers=tuple(Partition(np.array(lab)) for lab in minimizers),
        min_cost=best_cost,
        feasible_partition_count=feasible_count,
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Empirical escape/defeat rates next to their theoretical bounds."""

    p0: float
    trials: int
    kappa: float
    mu0: float
    epsilon: float
    gamma0: float
    beta0: float
    eta0: float
    common_obs_deficit_rate: float
    pair_feasible_rate: float
    truth_defeat_rate: float
    common_obs_deficit_ok: bool
    pair_feasible_ok: bool
    truth_defeat_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.common_obs_deficit_ok
            and self.pair_feasible_ok
            and self.truth_defeat_ok
        )


def _within_bound(rate: float, bound: float, n: int) -> bool:
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / n) if n > 0 else 0.0
    return rate <= bound + 3.0 * se


def monte_carlo_bound_check(
    data: ObservedDataset,
    truth: Partition,
    p0: float,
    trials: int,
    seed: int,
) -> BoundCheckReport:
    """Mask a fully observed instance repeatedly and compare three empirical
    rates against their bounds, at the tolerance epsilon and the geometry
    (kappa, mu0) that :func:`estimate_geometry` measures on the instance:

    (a) inter-cluster pairs sharing fewer than p0^2 P / 2 observed
        coordinates, against gamma0;
    (b) inter-cluster pairs that remain mergeable, against beta0;
    (c) trials where some wrong partition ties or beats the ground truth in
        the exhaustive solver, against eta0.

    Each rate must stay below bound + 3 binomial standard errors.
    """
    if not data.fully_observed:
        raise ValueError("bound check needs a fully observed instance")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")

    geometry = estimate_geometry(data, truth)
    if not geometry.kappa < 1.0:
        raise ValueError("bound check requires measured kappa < 1")
    eps = geometry.epsilon

    sizes = truth.group_sizes()
    if len(set(sizes.tolist())) != 1:
        raise ValueError("bounds assume equal cluster sizes")
    k_clusters = truth.cluster_count
    m_per = int(sizes[0])

    p_dim, n = data.feature_count, data.point_count
    lg = log_gamma0(p0, p_dim)
    ld = log_delta0(p0, p_dim, geometry.kappa, geometry.mu0)
    lb = log_beta0(lg, ld)
    gamma0_b = math.exp(lg)
    beta0_b = math.exp(lb)
    eta0_b = eta0(k_clusters, m_per, beta0_b)

    inter_pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if truth.labels[i] != truth.labels[j]
    ]
    deficit_threshold = p0 * p0 * p_dim / 2.0
    truth_labels = truth.canonical().labels

    deficit_hits = 0
    feasible_hits = 0
    defeat_hits = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        mask = rng.random((p_dim, n)) < p0
        masked = ObservedDataset(data.values, mask)
        observed = mask.astype(np.int64)
        common = observed.T @ observed
        for i, j in inter_pairs:
            # At p0 = 0 the requirement degenerates to 0 and no pair can
            # meet it, matching the trivial bound gamma0 = 1.
            if common[i, j] < deficit_threshold or deficit_threshold == 0.0:
                deficit_hits += 1
            if group_feasible(masked, (i, j), eps):
                feasible_hits += 1
        # l0_solve's minimizers are canonical already.
        minimizers = l0_solve(masked, eps).minimizers
        if len(minimizers) != 1 or not np.array_equal(minimizers[0].labels, truth_labels):
            defeat_hits += 1

    pair_total = trials * len(inter_pairs)
    deficit_rate = deficit_hits / pair_total
    feasible_rate = feasible_hits / pair_total
    defeat_rate = defeat_hits / trials
    return BoundCheckReport(
        p0=p0,
        trials=trials,
        kappa=geometry.kappa,
        mu0=geometry.mu0,
        epsilon=eps,
        gamma0=gamma0_b,
        beta0=beta0_b,
        eta0=eta0_b,
        common_obs_deficit_rate=deficit_rate,
        pair_feasible_rate=feasible_rate,
        truth_defeat_rate=defeat_rate,
        common_obs_deficit_ok=_within_bound(deficit_rate, gamma0_b, pair_total),
        pair_feasible_ok=_within_bound(feasible_rate, beta0_b, pair_total),
        truth_defeat_ok=_within_bound(defeat_rate, eta0_b, trials),
    )
