"""Synthetic dataset generation, random masking, and Wine preparation."""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import parse_label, read_points_csv
from .model import ClusterGeometry, ObservedDataset, Partition, SyntheticSpec, estimate_geometry


@dataclass(frozen=True)
class MaskSpec:
    """Independent per-entry observation with probability p0."""

    p0: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")


def block_centers(K: int, P: int, scale: float) -> np.ndarray:
    """K centers, each sitting on its own contiguous block of coordinates.

    Spreading each center's energy over P/K coordinates keeps the coherence
    of center differences low; ``scale`` controls the separation.
    """
    centers = np.zeros((K, P))
    bounds = np.linspace(0, P, K + 1).astype(int)
    for k in range(K):
        centers[k, bounds[k] : bounds[k + 1]] = scale
    return centers


def generate(spec: SyntheticSpec) -> tuple[ObservedDataset, Partition]:
    """Draw K*M points around the spec's centers with Gaussian noise of the
    spec's variance, cluster by cluster; point k*M + m belongs to cluster k.
    (Uniform-noise clusters come from :func:`gen_uniform_kappa`.)"""
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(0.0, math.sqrt(spec.variance), size=(spec.K, spec.M, spec.P))
    points = spec.centers[:, None, :] + noise
    values = points.reshape(spec.K * spec.M, spec.P).T
    labels = np.repeat(np.arange(spec.K), spec.M)
    return ObservedDataset.full(values), Partition(labels)


# Relative tolerance of gen_uniform_kappa's kappa search.
_KAPPA_REL_TOL = 0.05


def gen_uniform_kappa(
    K: int,
    M: int,
    P: int,
    target_kappa: float,
    seed: int,
) -> tuple[ObservedDataset, Partition, ClusterGeometry]:
    """Uniform-noise clusters around :func:`block_centers` (unit scale),
    rescaled until the measured difficulty ratio kappa lands within the
    fixed relative tolerance ``_KAPPA_REL_TOL`` of the target.

    One unit noise draw is shared by all candidate half-widths, so the search
    is over a deterministic one-parameter family; the returned geometry is
    measured, never the target.
    """
    # One cluster has no gap, one point per cluster no spread (kappa = 0).
    for name, value in (("K", K), ("M", M)):
        if value < 2:
            raise ValueError(f"{name} must be at least 2, got {value}")
    if not target_kappa > 0:
        raise ValueError("target_kappa must be positive")
    centers = block_centers(K, P, 1.0)
    rng = np.random.default_rng(seed)
    unit = rng.uniform(-1.0, 1.0, size=(K, M, P))
    labels = Partition(np.repeat(np.arange(K), M))

    def measure(h: float) -> tuple[ObservedDataset, ClusterGeometry]:
        values = (centers[:, None, :] + h * unit).reshape(K * M, P).T
        data = ObservedDataset.full(values)
        return data, estimate_geometry(data, labels)

    # kappa grows with the half-width h; bracket the target geometrically.
    center_gap = min(
        float(np.linalg.norm(centers[a] - centers[b]))
        for a in range(K)
        for b in range(a + 1, K)
    )
    h = max(target_kappa * center_gap / (2.0 * math.sqrt(P)), 1e-6)
    data, geom = measure(h)
    grow = 0
    while geom.kappa < target_kappa and grow < 60:
        h *= 2.0
        data, geom = measure(h)
        grow += 1
    if geom.kappa < target_kappa:
        raise RuntimeError("could not bracket the target kappa")
    lo, hi = 0.0, h

    for _ in range(100):
        if abs(geom.kappa - target_kappa) <= _KAPPA_REL_TOL * target_kappa:
            return data, labels, geom
        mid = 0.5 * (lo + hi)
        data, geom = measure(mid)
        if geom.kappa < target_kappa:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"kappa rescaling did not converge to {target_kappa} in 100 bisection steps"
    )


def apply_mask(data: ObservedDataset, mask_spec: MaskSpec) -> ObservedDataset:
    """Hide each entry independently with probability 1 - p0."""
    if not data.fully_observed:
        raise ValueError("apply_mask expects a fully observed dataset")
    rng = np.random.default_rng(mask_spec.seed)
    mask = rng.random(data.values.shape) < mask_spec.p0
    return ObservedDataset(data.values, mask)


# Content hash of the 178-row, 13-feature, 3-class Wine table (labels and
# values rendered canonically), used to warn about modified copies.
WINE_ROWS = 178
WINE_FEATURES = 13
WINE_CLASSES = 3
WINE_CONTENT_SHA256 = "c5246ebe4d5fc20c3e8272cfffa8517a6439d4257956d1833ee9df25bd5aa463"


def _wine_content_digest(labels: np.ndarray, features: np.ndarray) -> str:
    lines = []
    for lab, row in zip(labels, features):
        rendered = ",".join(f"{v:.6g}" for v in row)
        lines.append(f"{int(lab)}:{rendered}")
    payload = "\n".join(lines).encode()
    return hashlib.sha256(payload).hexdigest()


def load_wine_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the UCI-format Wine table: class label first, 13 features after.

    Returns (labels, features) in file order with labels remapped to 0..2.
    The table goes through :func:`read_points_csv`, so it takes the same
    comment and blank lines, and every entry must be present.
    """
    table, _ = read_points_csv(path)
    fields, rows = table.values.shape
    if fields != WINE_FEATURES + 1:
        raise ValueError(f"wine rows have {fields} fields, expected {WINE_FEATURES + 1}")
    if rows != WINE_ROWS:
        raise ValueError(f"wine table has {rows} rows, expected {WINE_ROWS}")
    if not table.fully_observed:
        raise ValueError("wine table has missing entries")
    raw_labels = np.array([parse_label(repr(v)) for v in table.values[0].tolist()])
    classes, remapped = np.unique(raw_labels, return_inverse=True)
    if classes.size != WINE_CLASSES:
        raise ValueError(f"wine table has {classes.size} classes, expected 3")
    # A C-ordered copy: z-scoring sums a transposed view in another order.
    features = table.values[1:].T.copy()
    if _wine_content_digest(raw_labels, features) != WINE_CONTENT_SHA256:
        warnings.warn(
            "wine table content does not match the expected checksum; "
            "results may not be comparable",
            stacklevel=2,
        )
    return remapped, features


def wine_prepare(raw_csv_path, m_per_class: int = 40) -> tuple[ObservedDataset, Partition]:
    """Standardize the Wine features, then keep the m_per_class points
    closest to their class mean (trimming outliers deterministically).

    Features are z-scored over all 178 points before trimming; distances are
    taken in the standardized space, ties broken by original row order.
    """
    if m_per_class < 1:
        raise ValueError(f"m_per_class must be at least 1, got {m_per_class}")
    labels, features = load_wine_csv(raw_csv_path)
    counts = np.bincount(labels)
    if m_per_class > counts.min():
        raise ValueError(
            f"m_per_class = {m_per_class} exceeds smallest class size {counts.min()}"
        )
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    standardized = (features - mean) / std

    keep_rows = []
    keep_labels = []
    for cls in range(WINE_CLASSES):
        idx = np.nonzero(labels == cls)[0]
        center = standardized[idx].mean(axis=0)
        dists = np.linalg.norm(standardized[idx] - center, axis=1)
        order = np.argsort(dists, kind="stable")[:m_per_class]
        chosen = idx[np.sort(order)]
        keep_rows.extend(chosen.tolist())
        keep_labels.extend([cls] * m_per_class)

    values = standardized[keep_rows].T
    return ObservedDataset.full(values), Partition(np.array(keep_labels))
