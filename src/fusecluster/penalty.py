"""Saturating penalties on pairwise distances and their quadratic majorizers.

Two families approximate a count of distinct pairs: a Gaussian-saturating
penalty ``1 - exp(-x^2 / (2 sigma^2))`` and the concave power ``x^p`` with
``0 < p <= 1``.  Each penalty ``phi`` is majorized at ``x0`` by the tangent
quadratic ``w(x0) * x^2 + (phi(x0) - w(x0) * x0^2)`` with
``w(x) = phi'(x) / (2x)``, which is what turns the clustering objective into
a sequence of weighted least-squares problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

H1 = "h1"
LP = "lp"


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family plus its one parameter.

    ``kind`` is ``"h1"`` (requires ``sigma > 0``, rejects ``p``) or ``"lp"``
    (requires ``0 < p <= 1``, rejects ``sigma``).  The power weight's one
    floor is the solver's run-level fuse threshold, not a penalty parameter.
    """

    kind: str
    sigma: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in (H1, LP):
            raise ValueError(f"unknown penalty kind: {self.kind!r}")
        if self.kind == H1 and not (self.p is None and (self.sigma or 0.0) > 0):
            raise ValueError(f"h1 takes sigma > 0 and no p (sigma={self.sigma}, p={self.p})")
        if self.kind == LP and not (self.sigma is None and 0.0 < (self.p or 0.0) <= 1.0):
            raise ValueError(f"lp takes 0 < p <= 1 and no sigma (p={self.p}, sigma={self.sigma})")

    @staticmethod
    def h1(sigma: float) -> "PenaltySpec":
        return PenaltySpec(kind=H1, sigma=sigma)

    @staticmethod
    def lp(p: float) -> "PenaltySpec":
        return PenaltySpec(kind=LP, p=p)


def phi(x, spec: PenaltySpec):
    """Penalty value at non-negative distance(s) x."""
    x = np.asarray(x, dtype=float)
    if spec.kind == H1:
        out = -np.expm1(-(x * x) / (2.0 * spec.sigma**2))
    else:
        out = x**spec.p
    return out if out.ndim else float(out)


def weight(x, spec: PenaltySpec):
    """Majorizer curvature w(x) = phi'(x) / (2x) at distance(s) x.

    The Gaussian-saturating weight extends continuously to x = 0; the power
    weight diverges there, and the solver floors x at its fuse threshold.
    """
    x = np.asarray(x, dtype=float)
    if spec.kind == H1:
        s2 = spec.sigma**2
        out = np.exp(-(x * x) / (2.0 * s2)) / (2.0 * s2)
    else:
        out = spec.p / (2.0 * x ** (2.0 - spec.p))
    return out if out.ndim else float(out)


def surrogate(x, x0, spec: PenaltySpec):
    """Value of the quadratic majorizer anchored at x0, evaluated at x."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    w = weight(x0, spec)
    out = w * x * x + (phi(x0, spec) - w * x0 * x0)
    return out if out.ndim else float(out)


def default_h1_sigma(data) -> float:
    """Scale-adaptive default sigma: half the median pairwise distance,
    estimated from commonly observed coordinates.

    For each pair the distance over shared observed coordinates is rescaled
    by sqrt(P / #shared) to estimate the full-vector distance; pairs with no
    shared coordinates are skipped.  Falls back to 1.0 when no informative
    pair exists.
    """
    values = data.observed_values()
    mask = data.mask.astype(float)
    p_dim, n = values.shape
    if n < 2:
        return 1.0
    # Shared-coordinate squared distances: sum over p of m_pi m_pj (x_pi - x_pj)^2
    # expands into masked Gram products.
    v2 = values * values
    shared = mask.T @ mask
    d2 = v2.T @ mask + mask.T @ v2 - 2.0 * (values.T @ values)
    iu = np.triu_indices(n, k=1)
    d2 = np.maximum(d2[iu], 0.0)
    cnt = shared[iu]
    ok = cnt > 0
    if not ok.any():
        return 1.0
    dists = np.sqrt(d2[ok] * (p_dim / cnt[ok]))
    sigma = 0.5 * float(np.median(dists))
    return sigma if sigma > 0 else 1.0
