"""Alternating majorize-minimize solver for fusion-penalty clustering.

The objective is

    sum_i ||S_i (u_i - x_i)||_2^2  +  lambda * sum_i sum_j phi(||u_i - u_j||_2)

over per-point centroid surrogates ``u_i`` (columns of a P x N matrix U),
where ``S_i`` keeps the observed coordinates of point i and the double sum
runs over ordered pairs.  Each outer iteration majorizes ``phi`` at the
current distances, which yields a weighted graph-Laplacian least-squares
problem per feature; the weights saturate, so far-apart pairs decouple while
nearby surrogates are pulled together until they coalesce into clusters.

The solver is deterministic: no randomness enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ObservedDataset, Partition, _frozen_array
from .penalty import LP, PenaltySpec, phi, weight


class ConvergenceError(RuntimeError):
    """Linear solver failed to reach its residual tolerance."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(f"{message} (residual norm {residual_norm:.3e})")
        self.residual_norm = residual_norm


class MajorizationError(RuntimeError):
    """Objective increased beyond slack; indicates an implementation bug."""


@dataclass(frozen=True)
class CentroidSet:
    """Converged surrogates U (P x N) and the final pairwise weights W."""

    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        U = _frozen_array(self.U, float)
        W = _frozen_array(self.W, float)
        if U.ndim != 2 or W.shape != (U.shape[1], U.shape[1]):
            raise ValueError("U must be P x N and W must be N x N")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(W))):
            raise ValueError("U and W must be finite")
        if np.any(W < 0) or np.any(np.diag(W) != 0) or not np.array_equal(W, W.T):
            raise ValueError("W must be symmetric, non-negative, zero-diagonal")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "W", W)


@dataclass(frozen=True)
class SolveTrace:
    """True-objective value per outer iteration (index 0 = initialization)."""

    objectives: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "objectives", _frozen_array(self.objectives, float))


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    penalty: PenaltySpec
    max_outer_iters: int = 200
    objective_rel_tol: float = 1e-8
    cg_tol: float = 1e-10
    cg_maxiter_factor: int = 10
    rho: float = 1e-8

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


def pairwise_distances(
    U: np.ndarray, accurate: bool = False, snap_tol: float = 0.0
) -> np.ndarray:
    """Euclidean distances between columns of U.

    The Gram expansion loses ~sqrt(eps)*scale of absolute accuracy near zero,
    which is harmless for the Gaussian-saturating penalty (quadratically flat
    at 0) but not for the power penalty whose slope diverges there; the
    accurate path accumulates squared differences feature by feature instead.
    Distances below ``snap_tol`` (when set) are reported as exactly 0.
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[1]
    if accurate:
        d2 = np.zeros((n, n))
        for row in U:
            diff = row[:, None] - row[None, :]
            d2 += diff * diff
    else:
        g = U.T @ U
        sq = np.einsum("pi,pi->i", U, U)
        d2 = sq[:, None] + sq[None, :] - 2.0 * g
        d2 = 0.5 * (d2 + d2.T)
        np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(d2)
    if snap_tol > 0.0:
        d[d < snap_tol] = 0.0
    return d


def _distances_for(U: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Pairwise distances at the precision the penalty needs.

    The power penalty's slope diverges at 0, so its distances come from the
    cancellation-free accumulation; the Gaussian-saturating penalty is
    quadratically flat there and the Gram expansion suffices.
    """
    if penalty.kind == LP:
        return pairwise_distances(U, accurate=True)
    return pairwise_distances(U)


def _fuse_threshold(penalty: PenaltySpec, u0: np.ndarray) -> float:
    """Run-level coalescence threshold for the power penalty.

    Pairs that dip below it are treated as permanently fused by the
    iteration: the floored weight is so stiff that they cannot separate
    again, while near the threshold the penalty slope would amplify
    solve-level jitter into non-monotone objective noise.  The threshold is
    fixed up front (from the initial scale) so the bookkeeping is sticky.
    """
    if penalty.kind != LP:
        return 0.0
    col_scale = float(np.max(np.linalg.norm(u0, axis=0), initial=0.0))
    return max(penalty.tau, 32.0 * math.sqrt(np.finfo(float).eps) * col_scale)


def observed_feature_means(data: ObservedDataset) -> np.ndarray:
    """Per-feature mean over observed entries; 0 for never-observed features."""
    obs = data.observed_values()
    cnt = data.mask.sum(axis=1)
    return np.where(cnt > 0, obs.sum(axis=1) / np.maximum(cnt, 1), 0.0)


def mean_imputed(data: ObservedDataset) -> np.ndarray:
    """Data matrix with each unobserved entry replaced by its feature mean."""
    return np.where(data.mask, data.values, observed_feature_means(data)[:, None])


def objective(
    data: ObservedDataset, U: np.ndarray, lam: float, penalty: PenaltySpec
) -> float:
    """True (non-surrogate) objective value at U."""
    dists = _distances_for(U, penalty)
    return _objective_from_distances(data, U, dists, lam, penalty)


def _objective_from_distances(data, U, dists, lam, penalty) -> float:
    resid = np.where(data.mask, U - data.values, 0.0)
    data_term = float(np.sum(resid * resid))
    pen = phi(dists, penalty)
    np.fill_diagonal(pen, 0.0)
    return data_term + lam * float(pen.sum())


def objective_gradient(
    data: ObservedDataset, U: np.ndarray, lam: float, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the objective with respect to U.

    d/du_i = 2 S_i'S_i (u_i - x_i) + 4 lambda sum_j w(d_ij) (u_i - u_j),
    using phi'(d)/d = 2 w(d); this is the same linear form whose zero set
    defines the centroid update.
    """
    dists = _distances_for(U, penalty)
    w = _weights_from_distances(dists, penalty)
    resid = np.where(data.mask, U - data.values, 0.0)
    deg = w.sum(axis=1)
    return 2.0 * resid + 4.0 * lam * _laplacian(w, deg, U)


def update_weights(U: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Majorizer weights w_ij = w(||u_i - u_j||) with a zero diagonal."""
    dists = _distances_for(U, penalty)
    return _weights_from_distances(dists, penalty)


def _weights_from_distances(dists: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    w = weight(dists, penalty)
    np.fill_diagonal(w, 0.0)
    return w


def update_centroids(
    data: ObservedDataset,
    W: np.ndarray,
    lam: float,
    rho: float,
    u0: np.ndarray | None = None,
    cg_tol: float = 1e-10,
    cg_maxiter_factor: int = 10,
) -> np.ndarray:
    """Exact minimizer of the weighted surrogate for fixed weights W.

    Per feature p the stationarity system is

        (D_p + 2 lambda L_W + rho I) u_p = D_p x_p + rho mbar_p 1,

    with D_p the observation-mask diagonal, L_W the Laplacian of W (the 2
    comes from the ordered double sum) and mbar_p the observed feature mean
    that the ridge anchors toward.  The solve is carried out on the
    correction d = u - u0 so that already-stationary anchors are preserved
    exactly; u0 defaults to the mean-imputed data.
    """
    W = np.asarray(W, dtype=float)
    n = data.point_count
    if W.shape != (n, n):
        raise ValueError("W must be N x N")
    if np.any(np.diag(W) != 0) or not np.allclose(W, W.T, rtol=0, atol=0):
        raise ValueError("W must be symmetric with zero diagonal")

    anchor = mean_imputed(data) if u0 is None else np.asarray(u0, dtype=float)
    return _solve_weighted_system(
        diag_data=data.mask.astype(float),
        rhs_data=data.observed_values(),
        rho_diag=np.full(n, rho),
        means=observed_feature_means(data),
        W=W,
        lam=lam,
        anchor=anchor,
        cg_tol=cg_tol,
        cg_maxiter_factor=cg_maxiter_factor,
    )


def _solve_weighted_system(
    diag_data,
    rhs_data,
    rho_diag,
    means,
    W,
    lam,
    anchor,
    cg_tol,
    cg_maxiter_factor,
):
    """Solve (diag(diag_data_p + rho_diag) + 2 lam L_W) v_p = rhs_p per feature.

    ``diag_data``/``rhs_data`` are P x G (per-feature diagonal and data rhs),
    ``rho_diag`` is the ridge diagonal (per column), and the rhs includes the
    ridge pull ``rho_diag * means``.  Works both on the point-level system
    (diagonal = observation mask) and on the fused-group quotient system
    (diagonal = per-group observation counts).

    The solve computes the correction d = v - anchor by batched
    Jacobi-preconditioned conjugate gradients; the residual r = b - A @ anchor
    keeps the data and ridge terms as differences, so an anchor that already
    satisfies them contributes exact zeros there.
    """
    deg = W.sum(axis=1)
    r = (rhs_data - diag_data * anchor) + rho_diag[None, :] * (
        means[:, None] - anchor
    )
    r -= 2.0 * lam * _laplacian(W, deg, anchor)

    b = rhs_data + rho_diag[None, :] * means[:, None]
    b_norm = np.linalg.norm(b, axis=1)
    diag_total = diag_data + rho_diag[None, :]
    # Residual target per feature: cg_tol relative to ||b||, floored at the
    # backward-stable limit ~eps * ||A|| * ||u|| that saturated-weight
    # (stiff) systems impose on any finite-precision solve.
    a_scale = np.max(diag_total, axis=1) + 2.0 * lam * float(deg.max(initial=0.0))
    anchor_norm = np.linalg.norm(anchor, axis=1)
    eps_floor = 64.0 * np.finfo(float).eps * a_scale * np.maximum(anchor_norm, b_norm)
    tol_per_feature = np.maximum.reduce(
        [cg_tol * b_norm, eps_floor, np.full_like(b_norm, 1e-300)]
    )
    d = _solve_cg(diag_total, W, deg, lam, r, tol_per_feature, cg_maxiter_factor)
    return anchor + d


def _laplacian(W, deg, V):
    """Batched L_W @ v_p for every feature row of V (deg = row sums of W)."""
    return V * deg[None, :] - V @ W


def _apply_system(diag_total, W, deg, lam, V):
    """Batched A @ V for all per-feature systems; V has one row per feature."""
    return diag_total * V + 2.0 * lam * _laplacian(W, deg, V)


def _solve_cg(diag_total, W, deg, lam, r, tol_per_feature, maxiter_factor):
    """Jacobi-preconditioned conjugate gradients, batched over features."""
    n = W.shape[1]
    d = np.zeros_like(r)
    res = r.copy()
    precond = diag_total + 2.0 * lam * deg[None, :]
    z = res / precond
    p = z.copy()
    rz = np.einsum("pi,pi->p", res, z)
    res_norm = np.linalg.norm(res, axis=1)
    for _ in range(maxiter_factor * n):
        active = res_norm > tol_per_feature
        if not active.any():
            return d
        ap = _apply_system(diag_total, W, deg, lam, p)
        pap = np.einsum("pi,pi->p", p, ap)
        alpha = np.where(active & (pap > 0), rz / np.where(pap > 0, pap, 1.0), 0.0)
        d += alpha[:, None] * p
        res -= alpha[:, None] * ap
        res_norm = np.linalg.norm(res, axis=1)
        z = res / precond
        rz_new = np.einsum("pi,pi->p", res, z)
        beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
        p = z + beta[:, None] * p
        rz = rz_new
    if np.any(res_norm > tol_per_feature):
        raise ConvergenceError(
            "conjugate gradient did not converge", float(res_norm.max())
        )
    return d


class _Groups:
    """Fused-group bookkeeping for the power penalty.

    Groups of points whose surrogates have coalesced are consolidated into
    single quotient columns: the aggregated system is exactly the original
    one restricted to equal columns per group, the floored weights disappear
    from the linear algebra, and fused pairs contribute exactly zero to the
    penalty from then on.  Fusion is permanent for a run; the floored weight
    a separation would run into makes un-fusing impossible in practice.
    """

    def __init__(self, data: ObservedDataset, v0: np.ndarray):
        self.diag = data.mask.astype(float)  # P x G observation counts
        self.rhs = data.observed_values()  # P x G sums of observed values
        self.counts = np.ones(data.point_count)
        self.rep = np.arange(data.point_count)
        self.V = v0.copy()

    @property
    def size(self) -> int:
        return self.V.shape[1]

    def expanded(self) -> np.ndarray:
        return self.V[:, self.rep]

    def merge_close(self, dists: np.ndarray, fuse_tol: float) -> bool:
        """Union all groups within fuse_tol; returns True when merged."""
        g = self.size
        close = dists < fuse_tol
        np.fill_diagonal(close, False)
        if not close.any():
            return False
        parent = list(range(g))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, bb in zip(*np.nonzero(close)):
            ra, rb = find(int(a)), find(int(bb))
            if ra != rb:
                parent[rb] = ra
        roots = [find(a) for a in range(g)]
        order: dict[int, int] = {}
        new_of_old = np.array([order.setdefault(r, len(order)) for r in roots])
        g_new = len(order)

        diag = np.zeros((self.diag.shape[0], g_new))
        rhs = np.zeros_like(diag)
        v = np.zeros_like(diag)
        counts = np.zeros(g_new)
        np.add.at(counts, new_of_old, self.counts)
        for old, new in enumerate(new_of_old):
            diag[:, new] += self.diag[:, old]
            rhs[:, new] += self.rhs[:, old]
            v[:, new] += self.counts[old] * self.V[:, old]
        self.diag, self.rhs = diag, rhs
        self.V = v / counts[None, :]
        self.counts = counts
        self.rep = new_of_old[self.rep]
        return True


def mm_cluster(
    data: ObservedDataset, config: SolverConfig
) -> tuple[CentroidSet, SolveTrace]:
    """Run the alternating weight/centroid updates to convergence.

    Initialization fills unobserved entries with observed feature means.
    With the power penalty, surrogate columns that coalesce below a run-level
    threshold are consolidated into quotient super-nodes (see
    :class:`_Groups`), which keeps the linear systems well conditioned
    through complete fusion.

    The trace records the true objective, whose monotone descent the
    majorize-minimize construction guarantees; an increase beyond slack
    raises :class:`MajorizationError`.
    """
    penalty = config.penalty
    u0 = mean_imputed(data)
    means = observed_feature_means(data)
    fuse_tol = _fuse_threshold(penalty, u0)
    groups = _Groups(data, u0)

    def group_distances():
        return _distances_for(groups.V, penalty)

    def true_objective(dists):
        resid = np.where(data.mask, groups.expanded() - data.values, 0.0)
        pen = phi(dists, penalty)
        np.fill_diagonal(pen, 0.0)
        pair_mult = np.outer(groups.counts, groups.counts)
        return float(np.sum(resid * resid)) + config.lam * float(
            np.sum(pen * pair_mult)
        )

    def group_weights(dists):
        w = weight(dists, penalty) * np.outer(groups.counts, groups.counts)
        np.fill_diagonal(w, 0.0)
        return w

    dists = group_distances()
    f = true_objective(dists)
    objectives = [f]
    converged = False
    iterations = 0
    w = group_weights(dists)

    for iterations in range(1, config.max_outer_iters + 1):
        groups.V = _solve_weighted_system(
            diag_data=groups.diag,
            rhs_data=groups.rhs,
            rho_diag=config.rho * groups.counts,
            means=means,
            W=w,
            lam=config.lam,
            anchor=groups.V,
            cg_tol=config.cg_tol,
            cg_maxiter_factor=config.cg_maxiter_factor,
        )
        dists = group_distances()
        f_new = true_objective(dists)
        objectives.append(f_new)
        if f_new > f + 1e-10 * max(abs(f), 1.0):
            raise MajorizationError(
                f"majorization violated: objective rose {f:.12g} -> {f_new:.12g}"
            )
        stop = abs(f_new - f) <= config.objective_rel_tol * max(abs(f), 1e-12)
        f = f_new
        if fuse_tol > 0.0 and groups.merge_close(dists, fuse_tol):
            dists = group_distances()
            stop = False  # topology changed; give the quotient a pass
        if stop:
            converged = True
            break
        w = group_weights(dists)

    u = groups.expanded()
    # Point-level weights at the final surrogates (coalesced pairs take the
    # floored weight, matching update_weights on the expanded matrix).
    w_points = _weights_from_distances(
        dists[groups.rep][:, groups.rep], penalty
    )
    centroids = CentroidSet(U=u, W=w_points)
    trace = SolveTrace(
        objectives=np.array(objectives), iterations=iterations, converged=converged
    )
    return centroids, trace


def default_merge_tol(U: np.ndarray) -> float:
    """1e-3 times the largest pairwise centroid distance (1.0 if all
    surrogates coincide)."""
    dmax = float(pairwise_distances(U).max())
    return 1e-3 * dmax if dmax > 0 else 1.0


def extract_clusters(U: np.ndarray, merge_tol: float) -> Partition:
    """Connected components of the graph linking surrogates within merge_tol.

    Chains merge transitively; labels follow first-occurrence order.
    """
    if not merge_tol > 0:
        raise ValueError("merge_tol must be positive")
    U = np.asarray(U, dtype=float)
    if not np.all(np.isfinite(U)):
        raise ValueError("U must be finite")
    n = U.shape[1]
    adj = pairwise_distances(U) <= merge_tol
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[i] & (labels < 0))[0]:
                labels[j] = next_label
                stack.append(j)
        next_label += 1
    return Partition(labels)
