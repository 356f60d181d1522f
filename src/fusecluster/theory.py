"""Closed-form recovery-guarantee quantities for clustering under random
per-entry observation.

All probability bounds are tracked in the natural-log domain and only
exponentiated on demand:

* ``gamma0`` bounds the probability that two points share fewer than
  ``p0^2 * P / 2`` observed coordinates.
* ``delta0`` bounds the probability that two points from different clusters
  are compatible with a common centroid despite sharing enough coordinates;
  it requires ``kappa < 1``.
* ``beta0 = 1 - (1 - delta0)(1 - gamma0)`` combines the two escape routes.
* ``eta0`` bounds the probability that any wrong grouping of the M points per
  cluster ties or beats the true one; for two clusters it reduces to the
  explicit sum over split sizes, and ``M^3 * beta0^(M-1)`` upper-bounds it
  under a validity condition on ``log beta0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

# Tuple-enumeration budget for the general-K failure-bound sum; beyond it the
# two-cluster closed sum or the approximation must be used.
ENUMERATION_BUDGET = 64


def log_gamma0(p0: float, P: int) -> float:
    """log of (e/2)^(-p0^2 P / 2): too-few-common-observations bound."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if P < 1:
        raise ValueError("P must be positive")
    return -(p0 * p0 * P / 2.0) * (1.0 - math.log(2.0))


def log_delta0(p0: float, P: int, kappa: float, mu0: float) -> float:
    """log of exp(-p0^2 P (1-kappa^2)^2 / mu0^2): same-centroid bound."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if P < 1:
        raise ValueError("P must be positive")
    if kappa >= 1.0:
        raise ValueError("guarantee undefined for kappa >= 1")
    if kappa < 0.0:
        raise ValueError("kappa must be non-negative")
    if mu0 < 1.0:
        raise ValueError("mu0 must be at least 1")
    return -p0 * p0 * P * (1.0 - kappa * kappa) ** 2 / (mu0 * mu0)


def log_beta0(lg: float, ld: float) -> float:
    """log of 1 - (1 - delta0)(1 - gamma0) from the two log-domain inputs."""
    if lg > 0.0 or ld > 0.0:
        raise ValueError("log probabilities must be <= 0")
    if lg == 0.0 or ld == 0.0:
        return 0.0
    if max(lg, ld) <= math.log(0.5):
        # Both factors small: beta = gamma + delta(1 - gamma), summed in logs.
        return _logaddexp(lg, ld + math.log1p(-math.exp(lg)))
    # At least one factor above 1/2, so beta >= 1/2 and the direct product
    # (1-gamma)(1-delta) is well conditioned.
    return math.log1p(-(-math.expm1(lg)) * (-math.expm1(ld)))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def eta0_two_clusters(M: int, beta0: float) -> float:
    """Failure bound for K = 2: sum over split sizes i of
    beta0^(i(M-i)) * C(M, i)^2."""
    _check_eta_args(2, M, beta0)
    lb = math.log(beta0) if beta0 > 0.0 else -math.inf
    total = 0.0
    for i in range(1, M):
        log_term = i * (M - i) * lb + 2.0 * _log_binom(M, i)
        total += _exp_or_inf(log_term)
    return total


def eta0_enumerate(K: int, M: int, beta0: float) -> float:
    """Failure bound by direct enumeration of ordered per-cluster pull counts
    (m_1, ..., m_K) >= 0 with sum M and at least two positive entries.

    Each tuple contributes beta0^((M^2 - sum m_j^2)/2) * prod_j C(M, m_j).
    Restricted to K * M <= ENUMERATION_BUDGET; larger problems should use
    the K = 2 closed sum or the approximation.
    """
    _check_eta_args(K, M, beta0)
    if K * M > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded (K*M = {K * M} > {ENUMERATION_BUDGET}); "
            "use the K=2 closed sum or eta0_approx"
        )
    lb = math.log(beta0) if beta0 > 0.0 else -math.inf
    total = 0.0
    for counts in _compositions(M, K):
        positives = sum(1 for m in counts if m > 0)
        if positives < 2:
            continue
        exponent = (M * M - sum(m * m for m in counts)) // 2
        log_term = exponent * lb + sum(_log_binom(M, m) for m in counts)
        total += _exp_or_inf(log_term)
    return total


def eta0(K: int, M: int, beta0: float) -> float:
    """Failure-probability bound; may exceed 1 (it is a bound, not a
    probability).  Returns inf if the linear-domain sum overflows."""
    _check_eta_args(K, M, beta0)
    if K == 2:
        return eta0_two_clusters(M, beta0)
    return eta0_enumerate(K, M, beta0)


def eta0_approx(M: int, beta0: float) -> tuple[float, bool]:
    """Two-cluster shortcut M^3 * beta0^(M-1) plus its validity flag.

    The flag checks log(beta0) <= 1/(M-1) + 2/(M-2) * log(1/(M-1)); the
    condition's second term is undefined at M = 2, so the flag is always
    False there.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    if not 0.0 <= beta0 <= 1.0:
        raise ValueError("beta0 must lie in [0, 1]")
    lb = math.log(beta0) if beta0 > 0.0 else -math.inf
    value = _exp_or_inf(3.0 * math.log(M) + (M - 1) * lb)
    if M == 2:
        return value, False
    threshold = 1.0 / (M - 1) + (2.0 / (M - 2)) * math.log(1.0 / (M - 1))
    return value, lb <= threshold


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _check_eta_args(K: int, M: int, beta0: float) -> None:
    if K < 2:
        raise ValueError("K must be at least 2")
    if M < 2:
        raise ValueError("M must be at least 2")
    if not 0.0 <= beta0 <= 1.0:
        raise ValueError("beta0 must lie in [0, 1]")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class GuaranteeReport:
    """Evaluated bounds at one parameter point.

    The probability bounds are stored in the log domain; ``eta0`` itself is
    linear because it may exceed 1.  ``success_lower_bound`` is
    ``max(0, 1 - eta0)`` clamped into [0, 1].
    """

    log_gamma0: float
    log_delta0: float
    log_beta0: float
    eta0: float
    eta0_approx: float
    approx_valid: bool
    success_lower_bound: float

    @property
    def gamma0(self) -> float:
        return math.exp(self.log_gamma0)

    @property
    def delta0(self) -> float:
        return math.exp(self.log_delta0)

    @property
    def beta0(self) -> float:
        return math.exp(self.log_beta0)


def evaluate_guarantees(
    p0: float, P: int, kappa: float, mu0: float, K: int, M: int
) -> GuaranteeReport:
    """Evaluate every bound at one parameter point.  Each formula checks its
    own inputs and raises ValueError on one outside its domain."""
    lg = log_gamma0(p0, P)
    ld = log_delta0(p0, P, kappa, mu0)
    lb = log_beta0(lg, ld)
    eta = eta0(K, M, math.exp(lb))
    approx, valid = eta0_approx(M, math.exp(lb))
    lower = min(1.0, max(0.0, 1.0 - eta))
    return GuaranteeReport(
        log_gamma0=lg,
        log_delta0=ld,
        log_beta0=lb,
        eta0=eta,
        eta0_approx=approx,
        approx_valid=valid,
        success_lower_bound=lower,
    )


def guarantee_curve(
    p0_grid: Sequence[float], P: int, kappa: float, mu0: float, K: int, M: int
) -> list[GuaranteeReport]:
    """Evaluate the bounds over a grid of observation probabilities."""
    grid = list(p0_grid)
    if not grid:
        raise ValueError("p0 grid must be non-empty")
    return [evaluate_guarantees(p0, P, kappa, mu0, K, M) for p0 in grid]
