"""Core data types and cluster-geometry measurements.

Matrix orientation is fixed across the package: features are rows, points are
columns, so a dataset with P features and N points is a P x N array.  All
types are immutable value objects; every array they hold is a C-ordered copy
made on construction and marked read-only, so instances are safe to share
across threads and their results do not depend on how the caller's arrays
sit in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ObservedDataset:
    """A P x N feature matrix together with a boolean observation mask.

    ``mask[p, i]`` is True when feature ``p`` of point ``i`` was observed.
    Values at unobserved positions are carried verbatim (they may be NaN or
    garbage) and must never influence any computation; use
    :meth:`observed_values` to get a NaN-safe zero-filled view.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, float)
        mask = _frozen_array(self.mask, bool)
        if values.ndim != 2:
            raise ValueError("values must be a P x N matrix")
        if mask.shape != values.shape:
            raise ValueError("mask shape must match values shape")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("need P >= 1 features and N >= 1 points")
        observed = np.where(mask, values, 0.0)
        if not np.all(np.isfinite(observed)):
            raise ValueError("observed entries must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def feature_count(self) -> int:
        return self.values.shape[0]

    @property
    def point_count(self) -> int:
        return self.values.shape[1]

    @property
    def fully_observed(self) -> bool:
        return bool(self.mask.all())

    def observed_values(self) -> np.ndarray:
        """Values with unobserved positions replaced by exact zeros."""
        return np.where(self.mask, self.values, 0.0)

    @staticmethod
    def full(values) -> "ObservedDataset":
        """Wrap a fully observed matrix."""
        values = np.asarray(values, dtype=float)
        return ObservedDataset(values, np.ones_like(values, dtype=bool))


@dataclass(frozen=True)
class Partition:
    """Cluster labels for N points; labels are a surjection onto 0..K-1."""

    labels: np.ndarray

    def __post_init__(self):
        labels = _frozen_array(self.labels, np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a non-empty 1-D integer array")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        k = int(labels.max()) + 1
        if len(np.unique(labels)) != k:
            raise ValueError("labels must use every value in 0..K-1")
        object.__setattr__(self, "labels", labels)

    @property
    def point_count(self) -> int:
        return self.labels.size

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max()) + 1

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.cluster_count)

    def canonical(self) -> "Partition":
        """Relabel clusters in order of first occurrence."""
        # Labels are 0..K-1, so label k's new value is the rank of its
        # first index among the K first indices.
        _, first = np.unique(self.labels, return_index=True)
        return Partition(np.argsort(np.argsort(first))[self.labels])

    def same_clustering(self, other: "Partition") -> bool:
        """Equality as equivalence relations (up to label permutation)."""
        if self.labels.size != other.labels.size:
            raise ValueError("partitions must label the same number of points")
        return bool(
            np.array_equal(self.canonical().labels, other.canonical().labels)
        )


@dataclass(frozen=True)
class ClusterGeometry:
    """Measured separation/spread/coherence summary of a labeled dataset.

    ``kappa = epsilon * sqrt(P) / delta`` ties the within-cluster spread
    (sup-norm diameter ``epsilon``) to the between-cluster gap (``delta``);
    small values mean an easier clustering problem.  A single-cluster dataset
    takes ``delta = inf``, so ``kappa = 0`` and downstream formulas degenerate
    gracefully.
    """

    delta: float
    epsilon: float
    mu0: float
    P: int

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not (1.0 <= self.mu0 <= self.P):
            raise ValueError("mu0 must lie in [1, P]")
        if self.delta <= 0:
            raise ValueError("delta must be positive (inf for one cluster)")

    @property
    def kappa(self) -> float:
        return self.epsilon * math.sqrt(self.P) / self.delta


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for K clusters of M points around explicit centers in R^P,
    each coordinate perturbed by Gaussian noise of the given ``variance``.
    Generation is deterministic given ``seed``.
    """

    K: int
    M: int
    P: int
    centers: np.ndarray
    variance: float = 0.1
    seed: int = 0

    def __post_init__(self):
        centers = _frozen_array(self.centers, float)
        if self.K < 1 or self.M < 1 or self.P < 1:
            raise ValueError("K, M, P must be positive")
        if centers.shape != (self.K, self.P):
            raise ValueError("centers must have shape (K, P)")
        if not self.variance >= 0:
            raise ValueError("variance must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")
        object.__setattr__(self, "centers", centers)

    @property
    def point_count(self) -> int:
        return self.K * self.M


def coherence(y) -> float:
    """Energy concentration of a vector: P * ||y||_inf^2 / ||y||_2^2.

    Ranges from 1 (flat vector) to P (one-hot); scale-invariant.  The vector
    is normalized by its sup-norm first so extreme magnitudes neither
    underflow nor overflow the squares.
    """
    y = np.asarray(y, dtype=float).ravel()
    peak = float(np.abs(y).max())
    if peak == 0.0:
        raise ValueError("coherence undefined for zero vector")
    scaled = y / peak
    return y.size / float(scaled @ scaled)


def _pairwise_sq_dists(
    values: np.ndarray, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Squared column distances d = sq_i + sq_j - 2 g_ij (Gram trick),
    clipped at 0, from columns ``[start, stop)`` to columns ``[start, N)``:
    all of them by default.  The leading square of the result is made
    exactly symmetric as 0.5 * (d + d.T) with a zero diagonal; computed in
    place in two arrays of the result's shape.

    A call over the whole matrix copies the left operand: numpy sends
    ``A.T @ A`` on one buffer to BLAS ``syrk``, which OpenBLAS threads and
    whose idle workers spin between the many small calls of a grid solve;
    on a copy it calls ``gemm``.  The row blocks of a large matrix keep
    their product, and with it their rounding."""
    stop = values.shape[1] if stop is None else stop
    b = stop - start
    cols = values[:, start:]
    left = values[:, start:stop]
    if start == 0 and stop == values.shape[1]:
        left = left.copy()
    g = left.T @ cols
    sq = np.einsum("pi,pi->i", cols, cols)
    d2 = np.add.outer(sq[:b], sq)
    g *= 2.0
    d2 -= g
    head = d2[:, :b]
    np.add(head, head.T, out=g[:, :b])
    np.multiply(g[:, :b], 0.5, out=head)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(head, 0.0)
    return d2


# Byte budget of the P x B x N difference buffer of _pairwise_reduce.
_EXACT_BLOCK_BYTES = 1 << 20


def _pairwise_reduce(
    values: np.ndarray, elementwise, reduce, stop: int | None = None
) -> np.ndarray:
    """``reduce`` over features of ``elementwise(values[:, i] - values[:, j])``
    for pairs of columns: squared l2 distances with ``np.square`` and
    ``np.add``, sup-norm distances with ``np.abs`` and ``np.maximum``.  Rows
    ``[0, stop)`` against all columns: all pairs by default (rows ``[s, e)``
    against columns ``[s, N)`` are ``values[:, s:]`` with ``e - s``).

    Works on that upper triangle, B rows at a time (B from a fixed ~1 MB
    budget for one P x B x N buffer): rows ``[s, s+B)`` are reduced against
    columns ``[s, N)`` only, and the part of the leading square left of the
    diagonal is copied, transposed, from the part right of it.  The
    copy is bitwise what a direct pass would compute: round-to-nearest
    subtraction is antisymmetric (``fl(a-b) == -fl(b-a)``), both elementwise
    maps are even, and the features are still reduced in index order, the
    order of a per-feature loop, so every entry is bitwise that loop's.
    Memory is O(result + P*B*N).  The leading square's diagonal is exactly 0.
    """
    p, n = values.shape
    stop = n if stop is None else stop
    rows = max(1, _EXACT_BLOCK_BYTES // max(8 * p * n, 1))
    out = np.empty((stop, n))
    buf = np.empty(p * min(rows, stop) * n)
    for a in range(0, stop, rows):
        b = min(a + rows, stop)
        # Packed contiguously: faster than a strided view of a wider buffer.
        diff = buf[: p * (b - a) * (n - a)].reshape(p, b - a, n - a)
        np.subtract(values[:, a:b, None], values[:, None, a:], out=diff)
        elementwise(diff, out=diff)
        # An axis-0 reduce combines feature by feature, never pairwise.
        reduce.reduce(diff, axis=0, out=out[a:b, a:])
        out[b:, a:b] = out[a:b, b:stop].T
    np.fill_diagonal(out, 0.0)
    return out


def estimate_geometry(data: ObservedDataset, truth: Partition) -> ClusterGeometry:
    """Measure delta (min inter-cluster l2 gap), epsilon (max intra-cluster
    sup-norm diameter), mu0 (max coherence of inter-cluster differences) and
    kappa on a fully observed, labeled dataset.
    """
    if not data.fully_observed:
        raise ValueError("geometry requires full observation")
    if truth.point_count != data.point_count:
        raise ValueError("partition length must match point count")

    values = data.values
    p_dim = data.feature_count
    labels = truth.labels
    same = labels[:, None] == labels[None, :]

    linf = _pairwise_reduce(values, np.abs, np.maximum)
    epsilon = float(linf[same].max())  # the zero diagonal: 0 for singletons

    inter = ~same
    if not inter.any():
        return ClusterGeometry(delta=math.inf, epsilon=epsilon, mu0=1.0, P=p_dim)

    sq = _pairwise_sq_dists(values)
    delta = math.sqrt(float(sq[inter].min()))
    if delta == 0.0:
        raise ValueError("coincident points in different clusters (delta = 0)")

    # mu = P * linf^2 / l2^2 per inter-cluster difference; delta > 0 rules
    # out the zero-difference case (both kernels are exactly symmetric).
    # Clamp rounding spill back into [1, P].
    mu0 = float(np.max(p_dim * linf[inter] ** 2 / sq[inter]))
    mu0 = min(max(mu0, 1.0), float(p_dim))
    return ClusterGeometry(delta=delta, epsilon=epsilon, mu0=mu0, P=p_dim)
