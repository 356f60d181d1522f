"""Alternating majorize-minimize solver for fusion-penalty clustering.

The objective is

    sum_i ||S_i (u_i - x_i)||_2^2  +  lambda * sum_i sum_j phi(||u_i - u_j||_2)

over per-point centroid surrogates ``u_i`` (columns of a P x N matrix U),
where ``S_i`` keeps the observed coordinates of point i and the double sum
runs over ordered pairs.  Each outer iteration majorizes ``phi`` at the
current distances, which yields a weighted graph-Laplacian least-squares
problem per feature; the weights saturate, so far-apart pairs decouple while
nearby surrogates are pulled together until they coalesce into clusters.

Both penalties share that surrogate, ``w(x) = phi'(x) / (2x)``, and one
row-blocked pass per iteration does all the N x N work for either
(:func:`_majorize`): per block of rows it takes the distances over the upper
triangle (Gram for h1, exact for the power penalty), evaluates ``phi`` and
``weight`` on them while they are in cache, adds the fusion sum of the
objective, writes the next weights into one N x N buffer that the solve
reuses and keeps the row blocks of pairs close enough to fuse.  One solve
state, :class:`_Groups`, merges those pairs into quotient columns; h1 never
fuses.  Extraction (:func:`extract_clusters`) walks the same row blocks
(:func:`_row_blocks`); both label ``(s, c)`` boolean blocks in vectorized
hooking rounds (:func:`_components`), which hold no N x N array of any kind.

The solver is deterministic: no randomness enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ObservedDataset, Partition, _frozen_array
from .model import _pairwise_reduce, _pairwise_sq_dists
from .penalty import LP, PenaltySpec, phi, weight


class ConvergenceError(RuntimeError):
    """Linear solver failed to reach its residual tolerance: ``iterations``
    conjugate-gradient steps left the largest residual norm
    ``residual_norm``."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(
            f"{message} after {iterations} iterations"
            f" (residual norm {residual_norm:.3e})"
        )
        self.message = message
        self.residual_norm = residual_norm
        self.iterations = iterations

    def __reduce__(self):  # args holds only the formatted message
        return type(self), (self.message, self.residual_norm, self.iterations)


class MajorizationError(RuntimeError):
    """Objective increased beyond the descent slack.

    ``iteration`` is the outer iteration whose objective ``current`` rose
    above its predecessor ``previous``.  Measured triggers: lambda held
    fixed while the data is scaled by c >= 1e20, where the rise is about
    1.8e-13 * c**2, the rounding floor of the solve (its CG error is
    relative to ||b|| ~ c, and the data term pays it squared); and stiff
    systems, h1 with sigma = 1 and lambda >= 1e10 on 5 x 20 standard
    Gaussians for some seeds.
    """

    def __init__(self, iteration: int, previous: float, current: float):
        super().__init__(
            f"majorization violated: objective rose {previous:.12g} -> {current:.12g}"
        )
        self.iteration = iteration
        self.previous = previous
        self.current = current

    def __reduce__(self):  # args holds only the message
        return type(self), (self.iteration, self.previous, self.current)


@dataclass(frozen=True)
class CentroidSet:
    """Converged surrogates U (P x N), one column per point.

    The final majorizer weights are ``update_weights(U, penalty)``.
    """

    U: np.ndarray

    def __post_init__(self):
        U = _frozen_array(self.U, float)
        if U.ndim != 2:
            raise ValueError("U must be P x N")
        if not np.all(np.isfinite(U)):
            raise ValueError("U must be finite")
        object.__setattr__(self, "U", U)


@dataclass(frozen=True)
class SolveTrace:
    """True-objective value per outer iteration (index 0 = initialization)."""

    objectives: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "objectives", _frozen_array(self.objectives, float))


# Conjugate-gradient stopping rule: the residual target relative to ||b||
# and the iteration cap as a multiple of the system size.
_CG_TOL = 1e-10
_CG_MAXITER_FACTOR = 10


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one :func:`mm_cluster` run.

    ``lam`` weighs the fusion penalty ``penalty``; the outer iteration stops
    after ``max_outer_iters`` steps or once the objective changes by at most
    ``objective_rel_tol`` relative; ``rho`` is the ridge that anchors each
    coordinate toward its observed feature mean.  The tolerance and the
    iteration cap of the inner conjugate-gradient solve are fixed module
    constants (``_CG_TOL``, ``_CG_MAXITER_FACTOR``), to be derived from the
    data's scale rather than set per run.
    """

    lam: float
    penalty: PenaltySpec
    max_outer_iters: int = 200
    objective_rel_tol: float = 1e-8
    rho: float = 1e-8

    def __post_init__(self):
        # A NaN setting fails every comparison: the outer stopping test
        # would never fire, or the solve would not be finite.
        for name in ("lam", "rho", "objective_rel_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        for name in ("rho", "objective_rel_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


def pairwise_distances(
    U: np.ndarray, accurate: bool = False, rows: tuple[int, int] | None = None
) -> np.ndarray:
    """Euclidean distances between columns of U.

    The Gram expansion loses ~sqrt(eps)*scale of absolute accuracy near zero,
    which is harmless for the Gaussian-saturating penalty (quadratically flat
    at 0) but not for the power penalty whose slope diverges there; the
    accurate path sums squared differences instead, with the exact kernel
    ``model._pairwise_reduce``.  That kernel computes each unordered pair
    once and mirrors it, bitwise exact because ``fl(a-b) == -fl(b-a)`` and
    squaring is even, so the result is bitwise a per-feature loop over all
    ordered pairs, and exactly symmetric.

    ``rows=(s, e)`` asks either path for one upper row block only: the
    distances from columns ``[s, e)`` to columns ``[s, N)``, whose leading
    square is exactly symmetric with a zero diagonal.  :func:`_row_blocks`
    asks for every block this way, for the majorization pass and for
    cluster extraction.
    """
    U = np.asarray(U, dtype=float)
    if accurate:
        d = _pairwise_reduce(U, np.square, np.add, *(rows or ()))
    else:
        d = _pairwise_sq_dists(U, *(rows or ()))
    return np.sqrt(d, out=d)


# Byte budget of one B x N row block of _row_blocks: small enough that the
# block's elementwise passes run in cache.
_PASS_BLOCK_BYTES = 1 << 20


def _row_blocks(U, accurate=False):
    """Yield ``(s, d)``: U's column distances from rows ``[s, s + len(d))``
    to columns ``[s, N)``, B rows at a time (B from ``_PASS_BLOCK_BYTES``)."""
    U = np.ascontiguousarray(U, dtype=float)  # one BLAS path for every layout
    n = U.shape[1]
    step = max(1, _PASS_BLOCK_BYTES // max(8 * n, 1))
    for s in range(0, n, step):
        yield s, pairwise_distances(U, accurate, (s, min(s + step, n)))


def _majorize(U, penalty, W, counts=None, fuse_tol=0.0):
    """Majorization at U in one row-blocked pass.

    Returns the fusion sum ``sum_{i != j} c_i c_j phi(d_ij)`` and the close
    pairs, and writes the weights ``c_i c_j w(d_ij)`` (zero diagonal) into
    the G x G buffer ``W``.  The close pairs come as the ``(s, c)`` record
    of :func:`_components`: ``c`` is a row block's ``d < fuse_tol`` with the
    diagonal cleared, so ``c[r, k]`` links columns ``s + r`` and ``s + k``;
    only blocks that hold a pair are kept, so an h1 pass keeps none.
    ``counts`` are the group sizes ``c`` of fused columns; ``None`` means
    every column is one point.  The power penalty takes the exact distances,
    the Gaussian-saturating one the Gram distances.

    One block of :func:`_row_blocks` at a time, ``phi`` and ``weight`` run
    on the block's distances while they are in cache.  The block's own
    square counts once in the fusion sum and the part right of it twice;
    that part is mirrored, transposed, into the lower triangle, so ``W`` is
    exactly symmetric.  Extra memory is O(P*G + budget).
    """
    fusion = 0.0
    close = []
    for s, d in _row_blocks(U, penalty.kind == LP):
        part, c = _majorize_block(d, penalty, s, W, counts, fuse_tol)
        fusion += part
        if c.any():
            close.append((s, c))
    return fusion, close


def _majorize_block(d, penalty, s, W, counts, fuse_tol):
    """Rows ``[s, s + len(d))`` of :func:`_majorize` at distances ``d``: their
    share of the fusion sum and their close block; temporaries die here."""
    e = s + len(d)
    mult = None if counts is None else np.outer(counts[s:e], counts[s:])
    pen = phi(d, penalty)
    if mult is not None:
        pen *= mult
    fusion = float(pen[:, : e - s].sum()) + 2.0 * float(pen[:, e - s :].sum())
    del pen
    w = weight(d, penalty)
    if mult is not None:
        w *= mult
    np.fill_diagonal(w, 0.0)  # the diagonal of the leading square
    W[s:e, s:] = w
    if e < len(W):
        W[e:, s:e] = w[:, e - s :].T
    close = d < fuse_tol
    np.fill_diagonal(close, False)  # a column is not its own close pair
    return fusion, close


def _fuse_threshold(penalty: PenaltySpec, u0: np.ndarray) -> float:
    """Run-level coalescence threshold: 0 (never fuse) for h1, whose weights
    stay bounded.

    Power-penalty pairs that dip below it are treated as permanently fused
    by the iteration: the floored weight is so stiff that they cannot
    separate again, while near the threshold the penalty slope would amplify
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
    U = np.asarray(U, dtype=float)
    fusion, _ = _majorize(U, penalty, np.empty((U.shape[1],) * 2))
    resid = np.where(data.mask, U - data.values, 0.0)
    return float(np.sum(resid * resid)) + lam * fusion


def objective_gradient(
    data: ObservedDataset, U: np.ndarray, lam: float, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the objective with respect to U.

    d/du_i = 2 S_i'S_i (u_i - x_i) + 4 lambda sum_j w(d_ij) (u_i - u_j),
    using phi'(d)/d = 2 w(d); this is the same linear form whose zero set
    defines the centroid update.
    """
    w = update_weights(U, penalty)
    resid = np.where(data.mask, U - data.values, 0.0)
    deg = w.sum(axis=1)
    return 2.0 * resid + 4.0 * lam * _laplacian(w, deg, U)


def update_weights(U: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Majorizer weights w_ij = w(||u_i - u_j||) with a zero diagonal.

    They come from the row-blocked pass :func:`_majorize`, the one the solve
    and :func:`objective` use, so they match a solve's weights bitwise.
    """
    U = np.asarray(U, dtype=float)
    W = np.empty((U.shape[1],) * 2)
    _majorize(U, penalty, W)
    return W


def update_centroids(
    data: ObservedDataset,
    W: np.ndarray,
    lam: float,
    rho: float,
) -> np.ndarray:
    """Exact minimizer of the weighted surrogate for fixed weights W.

    Per feature p the stationarity system is

        (D_p + 2 lambda L_W + rho I) u_p = D_p x_p + rho mbar_p 1,

    with D_p the observation-mask diagonal, L_W the Laplacian of W (the 2
    comes from the ordered double sum) and mbar_p the observed feature mean
    that the ridge anchors toward.  The solve is carried out on the
    correction d = u - u0 from the mean-imputed data u0, so anchors that are
    already stationary are preserved exactly.  Conjugate gradients run to
    the fixed relative tolerance ``_CG_TOL`` and raise
    :class:`ConvergenceError` after ``_CG_MAXITER_FACTOR * N`` iterations.
    """
    W = np.asarray(W, dtype=float)
    n = data.point_count
    if W.shape != (n, n):
        raise ValueError("W must be N x N")
    if not np.all(np.isfinite(W)):
        raise ValueError("W must be finite")
    if np.any(W < 0):
        raise ValueError("W must be non-negative")
    if np.any(np.diag(W) != 0) or not np.allclose(W, W.T, rtol=0, atol=0):
        raise ValueError("W must be symmetric with zero diagonal")

    return _solve_weighted_system(
        diag_data=data.mask.astype(float),
        rhs_data=data.observed_values(),
        rho_diag=np.full(n, rho),
        means=observed_feature_means(data),
        W=W,
        lam=lam,
        anchor=mean_imputed(data),
    )


def _solve_weighted_system(diag_data, rhs_data, rho_diag, means, W, lam, anchor):
    """Solve (diag(diag_data_p + rho_diag) + 2 lam L_W) v_p = rhs_p per feature.

    ``diag_data``/``rhs_data`` are P x G (per-feature diagonal and data rhs),
    ``rho_diag`` is the ridge diagonal (per column), and the rhs includes the
    ridge pull ``rho_diag * means``.  ``W`` holds the weights of the one
    majorization pass, for either penalty; the system is the point-level
    one (diagonal = observation mask) until something fuses and the
    fused-group quotient (diagonal = per-group observation counts) after.

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
    # Residual target per feature: _CG_TOL relative to ||b||, floored at the
    # backward-stable limit ~eps * ||A|| * ||u|| that saturated-weight
    # (stiff) systems impose on any finite-precision solve.
    a_scale = np.max(diag_total, axis=1) + 2.0 * lam * float(deg.max(initial=0.0))
    anchor_norm = np.linalg.norm(anchor, axis=1)
    eps_floor = 64.0 * np.finfo(float).eps * a_scale * np.maximum(anchor_norm, b_norm)
    tol_per_feature = np.maximum.reduce(
        [_CG_TOL * b_norm, eps_floor, np.full_like(b_norm, 1e-300)]
    )
    d = _solve_cg(diag_total, W, deg, lam, r, tol_per_feature)
    return anchor + d


def _laplacian(W, deg, V):
    """Batched L_W @ v_p for every feature row of V (deg = row sums of W)."""
    return V * deg[None, :] - V @ W


def _apply_system(diag_total, W, deg, lam, V):
    """Batched A @ V for all per-feature systems; V has one row per feature."""
    return diag_total * V + 2.0 * lam * _laplacian(W, deg, V)


def _solve_cg(diag_total, W, deg, lam, r, tol_per_feature):
    """Jacobi-preconditioned conjugate gradients, batched over features."""
    n = W.shape[1]
    d = np.zeros_like(r)
    res = r.copy()
    precond = diag_total + 2.0 * lam * deg[None, :]
    # A coordinate with no data, no ridge and no pull (every weight of its
    # point underflowed) has a zero row: its residual stays exactly 0, so
    # any non-zero divisor keeps it there instead of making 0/0.
    precond[precond == 0.0] = 1.0
    z = res / precond
    p = z.copy()
    rz = np.einsum("pi,pi->p", res, z)
    res_norm = np.linalg.norm(res, axis=1)
    maxiter = _CG_MAXITER_FACTOR * n
    for _ in range(maxiter):
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
            "conjugate gradient did not converge", float(res_norm.max()), maxiter
        )
    return d


class _Groups:
    """Solve state: one column per group of fused points.

    Every point starts as its own group.  Groups whose surrogates have
    coalesced below the run's fuse threshold are consolidated into single
    quotient columns: the aggregated system is exactly the original one
    restricted to equal columns per group, the floored weights disappear
    from the linear algebra, and fused pairs contribute exactly zero to the
    penalty from then on.  Fusion is permanent for a run; the floored weight
    a separation would run into makes un-fusing impossible in practice.  The
    h1 threshold is 0, so an h1 solve stays on the points themselves.

    Each :meth:`fusion` call runs the majorization pass at ``V``: it writes
    the next weights into the solve's one G x G buffer and records the close
    pairs that :meth:`merge` consumes.  ``rep`` (each point's group) stays
    ``None`` until the first merge.
    """

    def __init__(self, data: ObservedDataset, v0: np.ndarray, penalty: PenaltySpec):
        self.diag = data.mask.astype(float)  # P x G observation counts
        self.rhs = data.observed_values()  # P x G sums of observed values
        self.counts = np.ones(data.point_count)
        self.rep = None
        self.V = v0
        self.penalty = penalty
        self.fuse_tol = _fuse_threshold(penalty, v0)
        self.W = np.empty((data.point_count, data.point_count))
        self.close = None

    def expanded(self) -> np.ndarray:
        return self.V if self.rep is None else self.V[:, self.rep]

    def fusion(self) -> float:
        counts = None if self.rep is None else self.counts
        fusion, self.close = _majorize(
            self.V, self.penalty, self.W, counts, self.fuse_tol
        )
        return fusion

    def merge(self) -> bool:
        """Union the groups of the close pairs; returns True when merged."""
        if not self.close:
            return False
        new_of_old = _components(len(self.W), self.close)
        shape = (self.diag.shape[0], int(new_of_old.max()) + 1)
        cols = (slice(None), new_of_old)
        diag, rhs, v = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        counts = np.zeros(shape[1])
        np.add.at(counts, new_of_old, self.counts)
        np.add.at(diag, cols, self.diag)
        np.add.at(rhs, cols, self.rhs)
        np.add.at(v, cols, self.counts * self.V)
        self.diag, self.rhs = diag, rhs
        self.V = v / counts[None, :]
        self.counts = counts
        self.rep = new_of_old if self.rep is None else new_of_old[self.rep]
        self.W = None  # release the old buffer before allocating the new one
        self.W = np.empty((shape[1], shape[1]))
        self.fusion()  # the merged columns' weights for the next solve
        return True


def mm_cluster(
    data: ObservedDataset, config: SolverConfig
) -> tuple[CentroidSet, SolveTrace]:
    """Run the alternating weight/centroid updates to convergence.

    Initialization fills unobserved entries with observed feature means.
    Each outer iteration runs one majorization pass (:func:`_majorize`) at
    the new surrogates, for either penalty: it gives the true objective's
    fusion sum and the weights of the next solve.  With the power penalty,
    surrogate columns that coalesce below a run-level threshold are
    consolidated into quotient super-nodes (see :class:`_Groups`), which
    keeps the linear systems well conditioned through complete fusion; h1
    never fuses.

    The trace records the true objective, whose monotone descent the
    majorize-minimize construction guarantees; an increase beyond slack
    raises :class:`MajorizationError`.
    """
    u0 = mean_imputed(data)
    means = observed_feature_means(data)
    system = _Groups(data, u0, config.penalty)

    def true_objective():
        resid = np.where(data.mask, system.expanded() - data.values, 0.0)
        return float(np.sum(resid * resid)) + config.lam * system.fusion()

    f = true_objective()
    objectives = [f]
    converged = False
    iterations = 0

    for iterations in range(1, config.max_outer_iters + 1):
        system.V = _solve_weighted_system(
            diag_data=system.diag,
            rhs_data=system.rhs,
            rho_diag=config.rho * system.counts,
            means=means,
            W=system.W,
            lam=config.lam,
            anchor=system.V,
        )
        f_new = true_objective()
        objectives.append(f_new)
        if f_new > f + 1e-10 * max(abs(f), 1.0):
            raise MajorizationError(iterations, f, f_new)
        stop = abs(f_new - f) <= config.objective_rel_tol * max(abs(f), 1e-12)
        f = f_new
        if system.merge():
            stop = False  # topology changed; give the quotient a pass
        if stop:
            converged = True
            break

    trace = SolveTrace(
        objectives=np.array(objectives), iterations=iterations, converged=converged
    )
    return CentroidSet(U=system.expanded()), trace


def default_merge_tol(U: np.ndarray) -> float:
    """1e-3 times the largest pairwise centroid distance (1.0 if all
    surrogates coincide)."""
    dmax = max((float(d.max()) for _, d in _row_blocks(_finite(U))), default=0.0)
    return 1e-3 * dmax if dmax > 0 else 1.0


def extract_clusters(U: np.ndarray, merge_tol: float) -> Partition:
    """Connected components of the graph linking surrogates within merge_tol.

    Chains merge transitively; labels follow first-occurrence order.
    """
    if not merge_tol > 0:
        raise ValueError("merge_tol must be positive")
    U = _finite(U)
    close = [(s, d <= merge_tol) for s, d in _row_blocks(U)]
    return Partition(_components(U.shape[1], close))


def _finite(U):
    U = np.asarray(U, dtype=float)
    if not np.all(np.isfinite(U)):
        raise ValueError("U must be finite")
    return U


def _components(n, close):
    """Component labels of n columns, numbered by each one's lowest member.
    ``close`` holds ``(s, c)`` boolean row blocks; ``c[r, k]`` links columns
    ``s + r`` and ``s + k``.  Each round hooks every root to the smallest
    label next to its members and shortcuts every column to its root; roots
    hook only to smaller roots, so once a round changes nothing each
    component's label is its lowest member (Shiloach & Vishkin, 1982)."""
    labels = np.arange(n)
    while True:
        parent = labels.copy()
        for s, c in close:
            rows, cols = labels[s : s + len(c)], labels[s:]
            np.minimum.at(parent, rows, np.where(c, cols, n).min(axis=1))
            np.minimum.at(parent, cols, np.where(c, rows[:, None], n).min(axis=0))
        if np.array_equal(parent, labels):
            return np.unique(labels, return_inverse=True)[1]
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
        labels = parent
