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
row-blocked pass per iteration does the N x N work for either
(:func:`_majorize`): per block of rows it takes the distances over the upper
triangle, evaluates ``phi`` and ``weight`` on them while they are in cache,
adds the fusion sum of the objective, writes the next weights into one N x N
buffer that the solve reuses and, for lp, keeps the row blocks of pairs
close enough to fuse.  h1 takes Gram distances of its columns less their
mean.  The power penalty, whose slope diverges at 0, takes each within
1e-12 relative of the exact per-feature sum, and exactly 0 where that sum
is: a pair whose Gram product could cancel comes from the columns centred
on their component's mean, or from the exact sum (:func:`_lp_row_blocks`).
One solve state, :class:`_Groups`, merges the close pairs into quotient
columns; h1 never fuses.  Extraction (:func:`extract_clusters`) walks the
same row blocks (:func:`_row_blocks`); the merge, the components of the
power pass and extraction label ``(s, c)`` boolean blocks in vectorized
hooking rounds (:func:`_components`), which hold no N x N array of any kind.

The saturating weights make far-apart h1 surrogates decouple, so each h1
solve keeps only the diagonal blocks of W over the components of its
non-negligible weights (:meth:`_Groups.split`), views of the one weight
buffer after a column reorder.  The spans' systems are independent, so
each column span ``(a, b)`` runs its own batched CG on ``W[a:b, a:b]``, to
its share of the residual target; a one-column span's system is diagonal
and is solved in closed form.  h1's phi is at most 1, so the dropped pairs
can raise the true objective by at most ``lam * 2 sigma^2`` times their
weight, which a split must keep within ``eps * |f|``.  The split reads
only W and the current spans, and only a kept split moves columns.  The
single span ``(0, G)`` is the whole of W, as for lp.

Once the spans have drifted apart, an h1 pass pays only for their own
blocks (:meth:`_Groups.fusion`): a bound from span means and radii
(:func:`_spans_saturate`) shows that every pair between spans has phi
exactly 1.0, so the pass adds their count as one integer and computes only
the spans' diagonal blocks (:func:`_majorize_spans`).  Their weights are
then at most ``(eps / 4) / (2 sigma^2)`` each, within the split's budget,
so the split keeps its spans without reading W.  The reorder after a kept
split also computes only the new spans' blocks.  Any other pass is the full
one.

The solver is deterministic: no randomness enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ObservedDataset, Partition, _frozen_array
from .model import _pairwise_reduce, _pairwise_sq_dists
from .penalty import H1, LP, PenaltySpec, phi, weight


class _SolveError(RuntimeError):
    """Base of the solver's two typed errors.

    An error that :func:`mm_cluster` raises also names its run: ``lam``,
    the penalty ``kind``, the column count ``groups`` (G) of the system and
    the ``outer_iteration`` that failed, each ``None`` where no run is
    known.  ``args`` holds the constructor's positional arguments and the
    instance dict the rest, so a pickled or copied error (one from a forked
    grid worker) keeps every field."""

    def __init__(self, *args, lam=None, kind=None, groups=None, outer_iteration=None):
        super().__init__(*args)
        self.lam, self.kind = lam, kind
        self.groups, self.outer_iteration = groups, outer_iteration

    def __str__(self):
        if self.lam is None:
            return self._describe()
        return (
            f"{self._describe()} [outer iteration {self.outer_iteration},"
            f" lambda {self.lam:.12g}, penalty {self.kind}, G {self.groups}]"
        )


class ConvergenceError(_SolveError):
    """Linear solver failed to reach its residual tolerance: ``iterations``
    conjugate-gradient steps left the largest residual norm
    ``residual_norm``."""

    def __init__(self, message: str, residual_norm: float, iterations: int, **run):
        super().__init__(message, residual_norm, iterations, **run)
        self.message = message
        self.residual_norm = residual_norm
        self.iterations = iterations

    def _describe(self):
        return (
            f"{self.message} after {self.iterations} iterations"
            f" (residual norm {self.residual_norm:.3e})"
        )


class MajorizationError(_SolveError):
    """Objective increased beyond the descent slack.

    ``iteration`` is the outer iteration whose objective ``current`` rose
    above its predecessor ``previous``.  The solve minimizes the very
    objective it checks.  The measured trigger was Gram rounding in the h1
    pass, which grows with the columns' norms, not with their spread: on
    5 x 20 standard Gaussians (sigma = 1) it rose in 44 of 240 runs at lambda
    1e6..1e12, and in 62 of 160 at lambda 1e2..1e8 offset by 1e2 or 1e4.
    Centring that pass's columns (:func:`_majorize`) removed every rise.
    The block split of an h1 solve (:meth:`_Groups.split`) spends at most
    ``eps * |f|``, within ``eps * max(|f|, 1)``, of the slack.
    """

    def __init__(self, iteration: int, previous: float, current: float, **run):
        super().__init__(iteration, previous, current, **run)
        self.iteration = iteration
        self.previous = previous
        self.current = current

    def _describe(self):
        return (
            "majorization violated: objective rose"
            f" {self.previous:.12g} -> {self.current:.12g}"
        )


@dataclass(frozen=True)
class CentroidSet:
    """Converged surrogates U (P x N), one column per point.

    ``update_weights(U, penalty)`` recomputes the solve's final weights bit
    for bit for an h1 run that kept no block split and for an lp run that
    never fused.  After a kept split, it matches only the blocks the last
    pass kept, within rounding: the columns were reordered, so that pass's
    Gram products ran in another order, and a saturated pass writes no
    weight between the spans (the true ones are at most
    ``(eps / 4) / (2 sigma^2)``).  Once an lp run fuses, its solve weighs
    fused groups, and the weights on the expanded U differ.
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
    """True-objective value per outer iteration (index 0 = initialization),
    and per inner solve its conjugate-gradient iteration count and the
    number of diagonal blocks of W it kept (1 = all of W).  Each block runs
    its own batch, one matvec of that block per iteration (a one-column
    block is solved in closed form, as one); the count is the largest any
    block took."""

    objectives: np.ndarray
    converged: bool
    cg_iterations: tuple[int, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "objectives", _frozen_array(self.objectives, float))
        for name in ("cg_iterations", "blocks"):
            object.__setattr__(self, name, tuple(int(k) for k in getattr(self, name)))

    @property
    def iterations(self) -> int:
        """Outer iterations run: one per objective after the initial one."""
        return len(self.objectives) - 1


# Conjugate-gradient stopping rule: the residual target relative to ||b||
# and the iteration cap as a multiple of the system size.
_CG_TOL = 1e-10
_CG_MAXITER_FACTOR = 10


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one :func:`mm_cluster` run.

    ``lam`` weighs the fusion penalty ``penalty``; the outer iteration stops
    after ``max_outer_iters`` steps or once the objective changes by at most
    ``objective_rel_tol`` relative.  The tolerance and iteration cap of the
    inner conjugate-gradient solve (``_CG_TOL``, ``_CG_MAXITER_FACTOR``) are
    module constants, not settings.
    """

    lam: float
    penalty: PenaltySpec
    max_outer_iters: int = 200
    objective_rel_tol: float = 1e-8

    def __post_init__(self):
        # A NaN setting fails every comparison: the outer stopping test
        # would never fire, or the solve would not be finite.
        for name in ("lam", "objective_rel_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if self.objective_rel_tol < 0:
            raise ValueError("objective_rel_tol must be non-negative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


def pairwise_distances(U: np.ndarray, rows: tuple[int, int]) -> np.ndarray:
    """Euclidean distances from columns ``[s, e)`` of U to columns ``[s, N)``
    for ``rows=(s, e)``, by the Gram expansion ``model._pairwise_sq_dists``.

    A squared distance from the Gram expansion carries an absolute error of
    up to about ``(2P + 3) eps (||u_i||^2 + ||u_j||^2)``.  The h1 pass
    centres the columns on their mean first, so that error follows their
    spread; the power penalty, whose slope diverges at 0, takes
    component-centred products instead (:func:`_lp_row_blocks`).

    The block's leading square is exactly symmetric with a zero diagonal;
    ``rows=(0, N)`` gives the whole matrix.  :func:`_row_blocks` asks for
    every block this way, for the majorization pass and for cluster
    extraction.
    """
    d = _pairwise_sq_dists(np.asarray(U, dtype=float), *rows)
    return np.sqrt(d, out=d)


# Byte budget of one B x N row block of _row_blocks: small enough that the
# block's elementwise passes run in cache.
_PASS_BLOCK_BYTES = 1 << 20


def _row_blocks(U, budget=None):
    """Yield ``(s, d)``: U's column distances from rows ``[s, s + len(d))``
    to columns ``[s, N)``, B rows at a time (B from ``budget`` bytes per
    block, ``_PASS_BLOCK_BYTES`` by default)."""
    # Stored arrays are C-ordered already; a raw U passed to the public
    # distance routines may not be, and the Gram product rounds by layout.
    U = np.ascontiguousarray(U, dtype=float)
    n = U.shape[1]
    step = max(1, (budget or _PASS_BLOCK_BYTES) // max(8 * n, 1))
    for s in range(0, n, step):
        yield s, pairwise_distances(U, (s, min(s + step, n)))


# Relative accuracy of the power penalty's pass distances against the exact
# per-feature sums of squared differences.
_LP_RTOL = 1e-12


def _lp_row_blocks(U, parked):
    """Yield the ``(s, d)`` row blocks of :func:`_row_blocks`, each distance
    within ``_LP_RTOL`` relative of the exact per-feature sum, and that sum
    itself where it is 0 or where a Gram form could underflow.

    A Gram square ``d^2`` errs by at most ``(2P + 3) eps S``, with ``S`` the
    two columns' squared norms, so ``d^2 >= kappa S`` with
    ``kappa = (2P + 3) eps / _LP_RTOL`` bounds its relative error, and a
    floor of ``kappa tiny`` (``tiny`` the smallest normal float) covers
    products that underflow.

    Sweep 1 takes plain Gram blocks and yields every block whose pairs all
    pass that check.  A block with a pair that fails it waits in its
    own rows ``parked[s:e, s:]`` of the G x G buffer its weights will fill,
    and one :func:`_components` call labels the failing pairs.  Sweep 2
    yields the waiting blocks: pairs within a component from the Gram
    product of the columns centred on their component's mean, where the
    norms are at the component's scale, and the other pairs, which passed
    the check, as they waited.  A pair that fails the check against its
    centred norms is the exact sum over features in order, bitwise a
    per-feature loop.  It is gathered pair by pair, or, where at least half
    of a block's pairs fail, taken from the block by the row-blocked exact
    kernel ``model._pairwise_reduce``, which costs 0.4 to 0.6 of the gather
    per pair (P from 50 to 3000).  ``kappa`` nears 1 at P ~ 2250, and from
    there most pairs of a component fail.

    A yielded block's weights fill its own rows and, mirrored, rows below
    it in its own columns, so they never overwrite a waiting block.  Blocks
    take half of ``_PASS_BLOCK_BYTES``: the pass also holds the failing
    pairs as booleans, as the close pairs, and the P x G centred columns,
    and half blocks keep its peak below that of full ones.
    """
    U = np.ascontiguousarray(U, dtype=float)
    p, n = U.shape
    kappa = (2 * p + 3) * np.finfo(float).eps / _LP_RTOL
    half_bound = _half_bounds(U, kappa)
    near = []
    for s, d in _row_blocks(U, _PASS_BLOCK_BYTES // 2):
        c = _fails_check(d, half_bound, s)
        if c.any():
            near.append((s, c))
            parked[s : s + len(d), s:] = d
        else:
            del c
            yield s, d
    if not near:
        return
    labels = _components(n, near)
    spans = [(s, s + len(c)) for s, c in near]
    del near
    centred = U - _component_means(U, labels)[:, labels]
    half_bound = _half_bounds(centred, kappa)
    for s, e in spans:
        same = labels[s:e, None] == labels[None, s:]
        d = pairwise_distances(centred, (s, e))
        fail = _fails_check(d, half_bound, s)
        fail &= same
        np.copyto(d, parked[s:e, s:], where=~same)
        del same
        failing = np.count_nonzero(fail)
        # Both branches stay, by measurement: on cluster-lp only seed 7
        # input 2 gathers (49 and 64 pairs at G = 391), in 0.1 ms against
        # 4.1 ms for the exact kernel over the block's rows, and a pass over
        # three 200-point blobs at P = 3000 (69,979 pairs gathered) took
        # 1.04 s with the gather and 1.54 s without (medians of 12, 2 cores).
        if 2 * failing >= fail.size:
            exact = _pairwise_reduce(U[:, s:], np.square, np.add, e - s)
            np.copyto(d, np.sqrt(exact, out=exact), where=fail)
            del exact
        elif failing:
            r, k = np.nonzero(fail)
            d[r, k] = np.sqrt(_exact_sq_dists(U, s + r, s + k))
        del fail
        yield s, d


def _half_bounds(V, kappa):
    """Per column ``max(kappa ||v_i||^2, max(kappa, 1) tiny)``: the pair
    ``(i, j)`` passes the Gram check when ``d_ij^2`` reaches the sum of its
    two.  The floor covers ``kappa tiny`` and keeps the bounds normal
    numbers, which the elementwise passes take at full speed."""
    floor = max(kappa, 1.0) * np.finfo(float).tiny
    return np.maximum(kappa * np.einsum("pi,pi->i", V, V), floor)


def _fails_check(d, half_bound, s):
    """Rows ``[s, s + len(d))`` of distances ``d``: the off-diagonal pairs
    that fail the Gram check of :func:`_half_bounds`."""
    bound = np.add.outer(half_bound[s : s + len(d)], half_bound[s:])
    c = d < np.sqrt(bound, out=bound)
    np.fill_diagonal(c, False)  # the leading square's zero diagonal
    return c


def _component_means(U, labels):
    """P x K mean column of each of the K labelled components."""
    counts = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    order = np.argsort(labels, kind="stable")
    return np.add.reduceat(U[:, order], starts, axis=1) / counts


def _exact_sq_dists(U, i, j):
    """Squared distances of the column pairs ``(i, j)``, summed feature by
    feature in order, as a per-feature loop sums them."""
    out = np.zeros(len(i))
    for row in U:
        diff = row[i] - row[j]
        out += diff * diff
    return out


def _centred(U):
    """U's C-ordered columns less their mean.  A Gram square errs with the
    columns' norms, so centred its error follows their spread, not their
    distance from the origin; the mean is taken after the contiguous copy,
    so C and Fortran input give the same bits."""
    U = np.ascontiguousarray(U, dtype=float)
    return U - U.mean(axis=1, keepdims=True)


def _majorize(U, penalty, W, fuse_tol, counts=None):
    """Majorization at U in one row-blocked pass.

    Returns the fusion sum ``sum_{i != j} c_i c_j phi(d_ij)`` and the close
    pairs, and writes the weights ``c_i c_j w(d_ij)`` (zero diagonal) into
    the G x G buffer ``W``.  The close pairs come as the ``(s, c)`` record of
    :func:`_components`: ``c`` is a row block's ``d < fuse_tol`` with the
    diagonal cleared, so ``c[r, k]`` links columns ``s + r`` and ``s + k``;
    only blocks that hold a pair are kept, and a pass at ``fuse_tol = 0``
    (h1's) builds none.  ``counts`` are the group sizes ``c`` of fused
    columns; ``None`` means every column is one point.  h1 takes the Gram
    distances of :func:`_row_blocks` on U's C-ordered columns less their
    mean (:func:`_centred`); the power penalty takes those of
    :func:`_lp_row_blocks`, within ``_LP_RTOL`` relative of the exact
    per-feature sums and exactly 0 where those are.  A power weight is taken
    at ``max(d_ij, fuse_tol)``, read after ``phi`` and the close pairs.

    One block at a time, ``phi`` and ``weight`` run on the block's
    distances while they are in cache.  The block's own square counts once
    in the fusion sum and the part right of it twice; that part is
    mirrored, transposed, into the lower triangle, so ``W`` is exactly
    symmetric.  Extra memory is O(P*G + budget).  This is the full pass;
    once an h1 solve's spans are saturated apart, :meth:`_Groups.fusion`
    takes :func:`_majorize_spans` over their own blocks instead.
    """
    fusion, close = 0.0, []
    blocks = _lp_row_blocks(U, W) if penalty.kind == LP else _row_blocks(_centred(U))
    for s, d in blocks:
        part, c = _majorize_block(d, penalty, s, W, fuse_tol, counts)
        fusion += part
        if c is not None and c.any():
            close.append((s, c))
    return fusion, close


def _majorize_block(d, penalty, s, W, fuse_tol, counts):
    """Rows ``[s, s + len(d))`` of :func:`_majorize` at distances ``d``: their
    share of the fusion sum and their close block (None at ``fuse_tol = 0``);
    temporaries die here."""
    e = s + len(d)
    mult = None if counts is None else np.outer(counts[s:e], counts[s:])
    pen = phi(d, penalty)
    if mult is not None:
        pen *= mult
    fusion = float(pen[:, : e - s].sum()) + 2.0 * float(pen[:, e - s :].sum())
    del pen
    close = None
    if fuse_tol > 0:  # lp only (h1's is 0): close pairs, and the weight's floor
        close = d < fuse_tol
        np.fill_diagonal(close, False)  # a column is not its own close pair
        np.maximum(d, fuse_tol, out=d)
    w = weight(d, penalty)
    if mult is not None:
        w *= mult
    np.fill_diagonal(w, 0.0)  # the diagonal of the leading square
    W[s:e, s:] = w
    if e < len(W):
        W[e:, s:e] = w[:, e - s :].T
    return fusion, close


def _majorize_spans(Y, penalty, W, spans):
    """The h1 pass of :func:`_majorize` over each span's own diagonal block
    of the centred columns ``Y``: returns those blocks' fusion sum and writes
    their weights into ``W[a:b, a:b]``.  A one-column span has neither, and
    W between the spans is left as it was; one span over every column is
    the full pass."""
    fusion = 0.0
    for a, b in spans:
        if b - a > 1:
            block = W[a:b, a:b]
            for s, d in _row_blocks(Y[:, a:b]):
                fusion += _majorize_block(d, penalty, s, block, 0.0, None)[0]
    return fusion


# h1's phi = -expm1(-x) rounds to exactly 1.0 once exp(-x) <= eps / 4, that
# is from x = ln(4 / eps) = 54 ln 2 on; its weight there is at most
# (eps / 4) / (2 sigma^2).
_H1_SATURATED = math.log(4.0 / np.finfo(float).eps)


def _spans_saturate(Y, spans, sigma):
    """Whether h1's phi is exactly 1.0 on every pair of the centred columns
    ``Y`` in different ``spans`` (contiguous, covering Y in order), at the
    Gram distances the full pass would take.

    Columns of spans a and b are at least ``||c_a - c_b|| - r_a - r_b``
    apart, ``c`` a span's mean and ``r`` the largest distance of its columns
    from it (the triangle-inequality bound of k-means acceleration; Elkan,
    ICML 2003).  A Gram square may fall short of the true one by
    ``slack (||y_i||^2 + ||y_j||^2)``, ``slack = (2P + 3) eps``, both the
    pass's and the centres' own, and ``sqrt`` is subadditive, so the check
    is ``d(c_a, c_b) >= h_a + h_b`` on the centres' Gram distance ``d``, with

        h_a = r_a + sqrt(slack max_i ||y_i||^2) + sqrt(slack ||c_a||^2)
              + sqrt(2 sigma^2 x_sat) / 2

    per span, ``x_sat`` the threshold, and ``h`` raised by a further relative
    ``2 slack``, which covers the rounding of the bound and of the pass's
    ``x``.  The centres are compared in the row blocks of
    :func:`_row_blocks`, so no K x K array is held for K spans, and the
    first block with a pair short of the threshold ends the check.
    """
    slack = (2 * Y.shape[0] + 3) * np.finfo(float).eps
    starts = np.array([a for a, _ in spans])
    sizes = np.array([b - a for a, b in spans])
    means = np.add.reduceat(Y, starts, axis=1)
    means /= sizes
    dev = np.repeat(means, sizes, axis=1)
    np.subtract(Y, dev, out=dev)
    h = np.sqrt(np.maximum.reduceat(np.einsum("pi,pi->i", dev, dev), starts))
    del dev
    h *= 1.0 + slack
    h += np.sqrt(slack * np.maximum.reduceat(np.einsum("pi,pi->i", Y, Y), starts))
    h += np.sqrt(slack * np.einsum("pi,pi->i", means, means))
    h += 0.5 * math.sqrt(2.0 * sigma**2 * _H1_SATURATED)
    h *= 1.0 + 2.0 * slack
    for s, d in _row_blocks(means):
        np.fill_diagonal(d, math.inf)  # a span with itself
        if not (d >= np.add.outer(h[s : s + len(d)], h[s:])).all():  # NaN fails
            return False
    return True


def _fuse_threshold(penalty: PenaltySpec, u0: np.ndarray) -> float:
    """Run-level coalescence threshold ``32 sqrt(eps) max_i ||u0_i||``, the
    power penalty's one closeness scale (1.0 if every column is zero); 0
    (never fuse) for h1, whose weights stay bounded.

    Pairs that dip below it are fused at the next merge, and until then get
    the threshold's weight, the power weight's one floor: near it the
    penalty slope would amplify solve-level jitter into non-monotone
    objective noise.  Fixed from the initial scale, it scales with the data.
    """
    if penalty.kind != LP:
        return 0.0
    col_scale = float(np.max(np.linalg.norm(u0, axis=0), initial=0.0))
    return 32.0 * math.sqrt(np.finfo(float).eps) * col_scale if col_scale > 0 else 1.0


def mean_imputed(data: ObservedDataset) -> np.ndarray:
    """Data matrix with each unobserved entry replaced by its feature's mean
    over observed entries (0 for a never-observed feature)."""
    cnt = data.mask.sum(axis=1)
    means = np.where(cnt > 0, data.observed_values().sum(axis=1) / np.maximum(cnt, 1), 0.0)
    return np.where(data.mask, data.values, means[:, None])


def objective(
    data: ObservedDataset, U: np.ndarray, lam: float, penalty: PenaltySpec
) -> float:
    """True (non-surrogate) objective value at U."""
    return _Groups(data, _finite(U), penalty).objective(lam)


def objective_gradient(
    data: ObservedDataset, U: np.ndarray, lam: float, penalty: PenaltySpec
) -> np.ndarray:
    """Analytic gradient of the objective with respect to U.

    d/du_i = 2 S_i'S_i (u_i - x_i) + 4 lambda sum_j w(d_ij) (u_i - u_j),
    using phi'(d)/d = 2 w(d); this is the same linear form whose zero set
    defines the centroid update.
    """
    U = _finite(U)
    w = update_weights(U, penalty)
    resid = np.where(data.mask, U - data.values, 0.0)
    deg = w.sum(axis=1)
    return 2.0 * resid + 4.0 * lam * _laplacian(w, deg, U)


def update_weights(U: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Majorizer weights w_ij = w(||u_i - u_j||) with a zero diagonal.

    They come from the row-blocked pass :func:`_majorize`, the one the solve
    and :func:`objective` use, floored at U's own fuse threshold, so they
    stay finite on coincident columns.
    """
    U = _finite(U)
    W = np.empty((U.shape[1],) * 2)
    _majorize(U, penalty, W, _fuse_threshold(penalty, U))
    return W


def update_centroids(data: ObservedDataset, W: np.ndarray, lam: float) -> np.ndarray:
    """A minimizer of the weighted surrogate for fixed weights W.

    Per feature p the stationarity system is

        (D_p + 2 lambda L_W) u_p = D_p x_p,

    with D_p the observation-mask diagonal and L_W the Laplacian of W (the 2
    comes from the ordered double sum).  The solve is carried out on the
    correction d = u - u0 from the mean-imputed data u0, so anchors that are
    already stationary are preserved exactly.  Where the system is singular
    this returns one of its solutions: a coordinate that no point observes
    and no nonzero weight pulls keeps its mean-imputed value.
    This is one solve on the whole of W: conjugate gradients run to the
    fixed relative tolerance ``_CG_TOL`` and raise :class:`ConvergenceError`
    after ``_CG_MAXITER_FACTOR * N`` iterations (within :func:`mm_cluster`
    an h1 solve splits W, and the cap is per span).
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
        W=W,
        lam=lam,
        anchor=mean_imputed(data),
        spans=[(0, n)],
    )[0]


def _solve_weighted_system(diag_data, rhs_data, W, lam, anchor, spans):
    """Solve (diag(diag_data_p) + 2 lam L) v_p = rhs_p per feature.

    ``diag_data``/``rhs_data`` are P x G (per-feature diagonal and data rhs).
    ``W`` holds the weights of the one majorization pass, for either
    penalty; the system is the point-level one (diagonal = observation mask)
    until something fuses and the fused-group quotient (diagonal = per-group
    observation counts) after.  ``L`` is the Laplacian of W's diagonal
    blocks ``W[a:b, a:b]`` over the column ``spans``, which cover the
    columns in order; the one span ``[(0, G)]`` is the whole of W.

    The solve computes the correction d = v - anchor by Jacobi-preconditioned
    conjugate gradients, batched over features; the residual r = b - A @
    anchor keeps the data term as a difference, so an anchor that already
    satisfies it contributes exact zeros there.  The spans' systems are
    independent, so each runs as its own batch (:func:`_solve_cg`), to at
    most ``_CG_MAXITER_FACTOR * (b - a)`` iterations.  A span's residual
    target shares out the relative part of each feature's target,
    ``_CG_TOL * ||b|| * sqrt((b - a) / G)``, which keeps the residual over
    all spans within the target wherever that part binds, but not its
    backward-stable floor, which no span can beat.  A one-column span has no weight, so its system is diagonal
    and is solved in closed form, counted as one iteration.  Returns v and
    the largest number of conjugate-gradient iterations a span took.
    """
    c = 2.0 * lam
    wide = [(a, b) for a, b in spans if b - a > 1]
    ones = [a for a, b in spans if b - a == 1]
    deg = np.zeros(W.shape[1])  # a one-column span has no weight
    for a, b in wide:
        deg[a:b] = W[a:b, a:b].sum(axis=1)
    r = rhs_data - diag_data * anchor
    for a, b in wide:
        r[:, a:b] -= c * _laplacian(W[a:b, a:b], deg[a:b], anchor[:, a:b])

    b_norm = np.linalg.norm(rhs_data, axis=1)
    # Residual target per feature: _CG_TOL relative to ||b||, floored at the
    # backward-stable limit ~eps * ||A|| * ||u|| that saturated-weight
    # (stiff) systems impose on any finite-precision solve.
    a_scale = np.max(diag_data, axis=1) + c * float(deg.max(initial=0.0))
    anchor_norm = np.linalg.norm(anchor, axis=1)
    eps_floor = 64.0 * np.finfo(float).eps * a_scale * np.maximum(anchor_norm, b_norm)
    rel_tol = _CG_TOL * b_norm
    floor = np.maximum(eps_floor, 1e-300)
    v, iterations = anchor.copy(), 0
    width = sum(b - a for a, b in spans)
    for a, b in wide:
        share = math.sqrt((b - a) / width)  # exactly 1.0 for one span
        d, steps = _solve_cg(
            diag_data[:, a:b], W[a:b, a:b], deg[a:b], lam, r[:, a:b],
            np.maximum(rel_tol * share, floor),
        )
        v[:, a:b] += d
        iterations = max(iterations, steps)
    if ones:
        # diag_data * d = r; an entry with a zero diagonal has r = 0 and
        # keeps its anchor, as in _solve_cg.
        m = diag_data[:, ones]
        v[:, ones] += r[:, ones] / np.where(m > 0, m, 1.0)
        iterations = max(iterations, 1)
    return v, iterations


def _laplacian(w, deg, V):
    """Batched L @ v_p for every feature row of V, L the Laplacian of the
    weights ``w`` (deg = their row sums)."""
    out = V * deg[None, :]
    out -= V @ w
    return out


def _solve_cg(diag, w, deg, lam, r, tol_per_feature):
    """Jacobi-preconditioned conjugate gradients on (diag(diag_p) + 2 lam L)
    d_p = r_p, L the Laplacian of ``w``, batched over features; returns the
    correction and the number of iterations.

    The system's diagonal ``a = diag + 2 lam deg`` is formed once, so each
    step's product is ``A p = a * p - 2 lam (p @ w)``: one matmul into a
    buffer, one scaling and one fused add.  A feature converges once its
    squared residual norm ``res . res`` is at most ``tol_per_feature**2``.
    ``w`` is read in place, never copied or scaled, and every P x n array
    is allocated once per call."""
    n = len(deg)
    c = 2.0 * lam
    d = np.zeros_like(r)
    res = r.copy()
    ap, scratch = np.empty_like(res), np.empty_like(res)
    a = diag + c * deg[None, :]
    # A coordinate that no point observes and no nonzero weight pulls has a
    # zero row: its residual stays exactly 0, so any non-zero divisor keeps
    # it there (at its anchor) instead of making 0/0.
    precond = np.where(a == 0.0, 1.0, a)
    z = res / precond
    p = z.copy()
    rz = np.einsum("pi,pi->p", res, z)
    rr = np.einsum("pi,pi->p", res, res)
    tol2 = np.square(tol_per_feature)
    maxiter = _CG_MAXITER_FACTOR * n
    for iteration in range(maxiter):
        active = rr > tol2
        if not active.any():
            return d, iteration
        np.matmul(p, w, out=ap)
        ap *= -c
        ap += np.multiply(a, p, out=scratch)
        pap = np.einsum("pi,pi->p", p, ap)
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=active & (pap > 0))
        d += np.multiply(alpha[:, None], p, out=scratch)
        res -= np.multiply(alpha[:, None], ap, out=scratch)
        rr = np.einsum("pi,pi->p", res, res)
        np.divide(res, precond, out=z)
        rz_new = np.einsum("pi,pi->p", res, z)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=rz > 0)
        p *= beta[:, None]
        p += z
        rz = rz_new
    if np.any(rr > tol2):
        raise ConvergenceError(
            "conjugate gradient did not converge", math.sqrt(rr.max()), maxiter
        )
    return d, maxiter


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

    Each :meth:`objective` call runs the majorization pass at ``V``: it
    writes the next weights into the solve's one G x G buffer and records
    the close pairs that :meth:`merge` consumes.  :meth:`split` chooses the
    column ``spans`` the next solve keeps the weights of, and may reorder
    the columns so that each span is contiguous.  Once the pairs between
    the spans are saturated, a pass writes only the spans' own blocks and
    sets ``saturated`` (:meth:`fusion`), and W between them is stale.
    ``rep`` (each point's column) is ``None`` until the first merge or
    reorder; the data term and :meth:`expanded` stay in the points' own
    order.
    """

    def __init__(self, data: ObservedDataset, v0: np.ndarray, penalty: PenaltySpec):
        self.data = data
        self.diag = data.mask.astype(float)  # P x G observation counts
        self.rhs = data.observed_values()  # P x G sums of observed values
        self.counts = np.ones(data.point_count)
        self.rep = None
        self.V = v0
        self.penalty = penalty
        self.fuse_tol = _fuse_threshold(penalty, v0)
        self.W = np.empty((data.point_count, data.point_count))
        self.close = None
        self.spans = [(0, data.point_count)]
        self.saturated = False

    def expanded(self) -> np.ndarray:
        return self.V if self.rep is None else self.V[:, self.rep]

    def fusion(self) -> float:
        """The fusion sum at ``V`` by one pass, which writes the next
        solve's weights into ``W``.

        With more than one span (h1 only), one of them wider than a column,
        the pass first bounds every block between spans
        (:func:`_spans_saturate`).  When each such pair's phi is exactly
        1.0, it adds their count ``G^2 - sum n_k^2`` as one integer, writes
        only the spans' own blocks, and sets ``saturated``: W between the
        spans then keeps an earlier pass's values.  Otherwise it is the full
        pass, on the columns the bound has already centred (one span over
        all of them, bit for bit :func:`_majorize`'s h1 pass); where every
        span is one column (the centres are then the columns, and the bound
        would cost the pass's own distances), it is :func:`_majorize`.
        """
        self.saturated = False
        if len(self.spans) > 1 and any(b - a > 1 for a, b in self.spans):
            y, spans, between = _centred(self.V), [(0, len(self.W))], 0
            if _spans_saturate(y, self.spans, self.penalty.sigma):
                self.saturated, spans = True, self.spans
                between = len(self.W) ** 2 - sum((b - a) ** 2 for a, b in spans)
            self.close = []  # h1 has no close pairs
            return _majorize_spans(y, self.penalty, self.W, spans) + between
        # A reorder keeps one point per column; only a merge needs counts.
        counts = self.counts if len(self.counts) < self.data.point_count else None
        fusion, self.close = _majorize(
            self.V, self.penalty, self.W, self.fuse_tol, counts
        )
        return fusion

    def objective(self, lam: float) -> float:
        """The true objective at the expanded surrogates, by one pass."""
        resid = np.where(self.data.mask, self.expanded() - self.data.values, 0.0)
        return float(np.sum(resid * resid)) + lam * self.fusion()

    def merge(self) -> bool:
        """Union the groups of the close pairs; returns True when merged."""
        if not self.close:
            return False
        self._regroup(_components(len(self.W), self.close))
        return True

    def split(self, f: float, lam: float) -> None:
        """Set ``spans`` for the next solve from the weights ``W`` of the
        last pass, whose objective was ``f``.

        h1's phi is at most 1, so dropping the pairs between spans from the
        surrogate can raise the true objective by at most ``lam * 2 sigma^2``
        times their weight, summed over ordered pairs.  A split is kept only
        while that sum, taken directly over the dropped entries, is at most
        ``eps * |f|`` (the budget; the descent slack's floor at 1 would let
        a tiny-scale run drop every weight).  The current spans are
        re-checked first: after a saturated pass they pass unread, since
        each of the ``S`` pairs between them weighs at most
        ``(eps / 4) / (2 sigma^2)`` and ``f >= lam S``; after a full pass,
        on W.  Every split drops at least the ``2 (G - 1)``
        ordered pairs of one column, so no new one is sought when those, at
        W's smallest off-diagonal weight, would exceed the budget.  A new
        split can cut only pairs lighter than the budget, so the finest one
        that could pass is the components of the heavier pairs, whose cut
        the labeller sums as it reads W.  Only a kept split moves columns,
        so that each span is contiguous; the pass that follows the move
        computes only the new spans' blocks.
        """
        g = len(self.W)
        if self.penalty.kind != H1 or g < 2:
            self.spans = [(0, g)]
            return
        # The weight that may be dropped: h1's rise per unit weight is
        # lam 2 sigma^2, and the budget is eps |f|.
        budget = np.finfo(float).eps * abs(f) / lam / (2.0 * self.penalty.sigma**2)
        if len(self.spans) > 1 and (
            self.saturated or _span_cut_mass(self.W, self.spans) <= budget
        ):
            return
        self.spans = [(0, g)]
        diagonal = self.W.reshape(-1)[:: g + 1]  # a view: W is C-ordered
        diagonal[:] = math.inf
        low = self.W.min()
        diagonal[:] = 0.0
        if 2 * (g - 1) * low > budget:
            return
        labels, cut = _heavy_components(self.W, budget)
        if labels.max() == 0 or cut > budget:
            return
        sizes = np.bincount(labels)
        ends = np.cumsum(sizes)
        self.spans = list(zip((ends - sizes).tolist(), ends.tolist()))
        order = np.argsort(labels, kind="stable")
        if np.any(np.diff(order) < 0):
            new_of_old = np.empty_like(order)
            new_of_old[order] = np.arange(g)
            self._regroup(new_of_old)

    def _regroup(self, new_of_old):
        """Move each group to column ``new_of_old[group]``, summing groups
        that share one, and re-run the pass for the next solve's weights:
        after a merge the full pass, and after a kept split only the new
        ``spans``' own blocks, whose fusion sum is not needed (the split
        checked its cut on the full W before the move)."""
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
        if len(self.W) != shape[1]:
            self.W = None  # release the old buffer before allocating the new one
            self.W = np.empty((shape[1], shape[1]))
        if len(self.spans) > 1:  # a kept split: only the spans' own blocks
            _majorize_spans(_centred(self.V), self.penalty, self.W, self.spans)
        else:
            self.fusion()


def _heavy_components(W, floor):
    """Component labels of the pairs whose weight exceeds ``floor``,
    numbered by each one's lowest member, and W's sum over the ordered
    pairs in different components.  Each component grows breadth first
    from its lowest member, one row block of the frontier at a time, so
    every row of W is read at most once and no G x G temporary is made.
    When a row of component ``c`` is read, every column labelled below
    ``c`` is final, so its product with their 0/1 indicator adds exactly
    its entries between ``c`` and the earlier components."""
    g = len(W)
    step = max(1, _PASS_BLOCK_BYTES // (8 * g))
    labels = np.full(g, -1)
    earlier = np.zeros(g)
    cut = 0.0
    for label in range(g):
        frontier = np.flatnonzero(labels < 0)[:1]
        if not frontier.size:
            break
        labels[frontier] = label
        # The first component stops once every column is labelled (one row
        # if the first column links to all others); later ones read all.
        while frontier.size and (label or (labels < 0).any()):
            reach = np.zeros(g, dtype=bool)
            for c in range(0, frontier.size, step):
                rows = W[frontier[c : c + step]]
                reach |= (rows > floor).any(axis=0)
                if label:
                    cut += float((rows @ earlier).sum())
            frontier = np.flatnonzero(reach & (labels < 0))
            labels[frontier] = label
        earlier[labels == label] = 1.0
    return labels, 2.0 * cut


def _span_cut_mass(W, spans):
    """Sum of W over the ordered pairs in different ``spans``, which are
    contiguous: twice the sum of the blocks right of each span's diagonal
    block."""
    return 2.0 * sum(float(W[a:b, b:].sum()) for a, b in spans)


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
    never fuses, and its solves keep only the blocks of
    :meth:`_Groups.split`.

    The trace records the true objective, whose monotone descent the
    majorize-minimize construction guarantees.  The descent slack is
    ``1e-10 * max(|f|, 1)``: an objective may exceed its predecessor ``f``
    by at most that much, and a larger rise raises
    :class:`MajorizationError`.  That holds for the final, converged
    re-evaluation too, which may end within the slack above its predecessor
    (by 1 ulp on the benchmark's ``cluster-h1`` seed 1).  It and a
    :class:`ConvergenceError` from a solve carry the run's ``lam``, penalty
    ``kind``, column count ``groups`` and ``outer_iteration``.
    """
    system = _Groups(data, mean_imputed(data), config.penalty)
    f = system.objective(config.lam)
    objectives = [f]
    cg_iterations, blocks = [], []
    converged = False

    for iterations in range(1, config.max_outer_iters + 1):
        system.split(f, config.lam)
        run = dict(
            lam=config.lam, kind=config.penalty.kind,
            groups=len(system.W), outer_iteration=iterations,
        )
        try:
            system.V, steps = _solve_weighted_system(
                system.diag, system.rhs, system.W, config.lam, system.V, system.spans
            )
        except ConvergenceError as err:
            err.__dict__.update(run)
            raise
        cg_iterations.append(steps)
        blocks.append(len(system.spans))
        f_new = system.objective(config.lam)
        objectives.append(f_new)
        if f_new > f + 1e-10 * max(abs(f), 1.0):
            raise MajorizationError(iterations, f, f_new, **run)
        stop = abs(f_new - f) <= config.objective_rel_tol * abs(f)
        f = f_new
        if system.merge():
            stop = False  # topology changed; give the quotient a pass
        if stop:
            converged = True
            break

    trace = SolveTrace(
        objectives=np.array(objectives),
        converged=converged,
        cg_iterations=tuple(cg_iterations),
        blocks=tuple(blocks),
    )
    return CentroidSet(U=system.expanded()), trace


def default_merge_tol(U: np.ndarray) -> float:
    """1e-3 times the largest pairwise centroid distance (1.0 if all
    surrogates coincide), from the Gram distances of U less its mean."""
    blocks = _row_blocks(_centred(_finite(U)))
    dmax = max((float(d.max()) for _, d in blocks), default=0.0)
    return 1e-3 * dmax if dmax > 0 else 1.0


def extract_clusters(U: np.ndarray, merge_tol: float) -> Partition:
    """Connected components of the graph linking surrogates within merge_tol.

    Chains merge transitively; labels follow first-occurrence order.  The
    distances are the Gram distances of U less its mean, so their error
    follows the surrogates' spread, not their distance from the origin.
    """
    if not merge_tol > 0:
        raise ValueError("merge_tol must be positive")
    U = _finite(U)
    close = [(s, d <= merge_tol) for s, d in _row_blocks(_centred(U))]
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
