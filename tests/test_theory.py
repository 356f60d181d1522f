import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecluster.theory import (
    eta0,
    eta0_approx,
    eta0_enumerate,
    eta0_two_clusters,
    evaluate_guarantees,
    guarantee_curve,
    log_beta0,
    log_delta0,
    log_gamma0,
)

BETA_GRID = (0.9, 0.5, 0.1, 1e-3)


def eta0_brute_force(K: int, M: int, beta0: float) -> float:
    """Independent re-derivation: literal sweep over all ordered count
    tuples with exact integer binomials."""
    total = 0.0
    for counts in itertools.product(range(M + 1), repeat=K):
        if sum(counts) != M:
            continue
        if sum(1 for m in counts if m > 0) < 2:
            continue
        exponent = (M * M - sum(m * m for m in counts)) // 2
        term = beta0**exponent
        for m in counts:
            term *= math.comb(M, m)
        total += term
    return total


class TestGamma0:
    def test_zero_p0_gives_one(self):
        assert log_gamma0(0.0, 123) == 0.0

    def test_p0_one_p_two(self):
        # (e/2)^-1
        assert math.exp(log_gamma0(1.0, 2)) == pytest.approx(
            2.0 / math.e, rel=1e-14
        )

    def test_p0_one_p_fifty_log_value(self):
        assert log_gamma0(1.0, 50) == pytest.approx(-25.0 * (1.0 - math.log(2)), rel=1e-14)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            log_gamma0(1.5, 10)


class TestDelta0:
    def test_zero_p0_gives_one(self):
        assert log_delta0(0.0, 10, 0.3, 2.0) == 0.0

    def test_kappa_near_one_vanishing_exponent(self):
        assert math.exp(log_delta0(0.7, 30, 1.0 - 1e-9, 1.5)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert math.exp(log_delta0(1.0, 50, 0.5, 1.5)) == pytest.approx(
            math.exp(-12.5), rel=1e-14
        )

    def test_kappa_at_least_one_rejected(self):
        with pytest.raises(ValueError, match="kappa >= 1"):
            log_delta0(0.5, 10, 1.0, 2.0)


class TestBeta0:
    def test_both_zero(self):
        assert math.exp(log_beta0(-math.inf, -math.inf)) == 0.0

    def test_delta_one_dominates(self):
        assert log_beta0(math.log(0.3), 0.0) == 0.0

    def test_hand_value(self):
        val = math.exp(log_beta0(math.log(0.2), math.log(0.1)))
        assert val == pytest.approx(0.28, abs=1e-15)

    @given(
        st.floats(min_value=-50.0, max_value=0.0),
        st.floats(min_value=-50.0, max_value=0.0),
    )
    def test_matches_direct_formula(self, lg, ld):
        direct = 1.0 - (1.0 - math.exp(ld)) * (1.0 - math.exp(lg))
        if direct <= 0.0:
            return
        assert math.exp(log_beta0(lg, ld)) == pytest.approx(direct, rel=1e-12)


class TestEta0:
    @pytest.mark.parametrize("beta", (0.9, 0.5, 0.1))
    def test_two_clusters_m2(self, beta):
        assert eta0(2, 2, beta) == pytest.approx(4 * beta, rel=1e-12)

    @pytest.mark.parametrize("beta", (0.9, 0.5, 0.1))
    def test_two_clusters_m3(self, beta):
        assert eta0(2, 3, beta) == pytest.approx(18 * beta**2, rel=1e-12)

    def test_k3_m2_hand_value(self):
        # Tuples are the permutations of (1,1,0): three terms of 4*beta.
        assert eta0_enumerate(3, 2, 0.25) == pytest.approx(3.0, rel=1e-12)

    def test_zero_beta_gives_zero(self):
        assert eta0(2, 7, 0.0) == 0.0
        assert eta0_enumerate(3, 4, 0.0) == 0.0

    @pytest.mark.parametrize("M", range(2, 13))
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_enumerator_matches_closed_k2_sum(self, M, beta):
        assert eta0_enumerate(2, M, beta) == pytest.approx(
            eta0_two_clusters(M, beta), rel=1e-10
        )

    @pytest.mark.parametrize("K,M", [(2, 6), (3, 5), (4, 4)])
    @pytest.mark.parametrize("beta", (0.7, 0.2))
    def test_against_brute_force(self, K, M, beta):
        assert eta0_enumerate(K, M, beta) == pytest.approx(
            eta0_brute_force(K, M, beta), rel=1e-10
        )

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            eta0_enumerate(5, 20, 0.5)
        # K=2 routes through the closed sum regardless of size.
        assert eta0(2, 200, 1e-3) >= 0.0

    def test_overflow_returns_inf(self):
        assert eta0(2, 10_000, 1.0) == math.inf

    @pytest.mark.parametrize("M", (3, 6, 10))
    def test_monotone_in_beta(self, M):
        values = [eta0(2, M, b) for b in (0.01, 0.1, 0.5, 0.9)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestEta0Approx:
    def test_hand_value(self):
        value, valid = eta0_approx(3, 0.1)
        assert value == pytest.approx(0.27, rel=1e-12)
        assert valid

    def test_zero_beta(self):
        value, valid = eta0_approx(5, 0.0)
        assert value == 0.0 and valid

    def test_m2_flagged_invalid(self):
        value, valid = eta0_approx(2, 0.3)
        assert value == pytest.approx(8 * 0.3, rel=1e-12)
        assert not valid

    def test_bound_dominates_exact_when_valid(self):
        # M=4, beta=0.01: exact = 32 b^3 + 36 b^4 <= 64 b^3.
        exact = eta0(2, 4, 0.01)
        value, valid = eta0_approx(4, 0.01)
        assert valid
        assert value == pytest.approx(64e-6, rel=1e-12)
        assert exact <= value

    @pytest.mark.parametrize("M", range(3, 13))
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_bound_holds_wherever_valid(self, M, beta):
        value, valid = eta0_approx(M, beta)
        if valid:
            assert eta0(2, M, beta) <= value * (1 + 1e-12)


class TestMonotoneInP0:
    @pytest.mark.parametrize("field", ("gamma0", "delta0", "beta0"))
    def test_bounds_non_increasing_in_p0(self, field):
        grid = np.linspace(0, 1, 21)
        reports = guarantee_curve(grid, P=50, kappa=0.5, mu0=1.5, K=2, M=10)
        values = [getattr(r, field) for r in reports]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_delta0_non_decreasing_in_kappa_and_mu0(self):
        lows = [math.exp(log_delta0(0.8, 50, k, 1.5)) for k in (0.1, 0.4, 0.7, 0.95)]
        assert all(a <= b + 1e-15 for a, b in zip(lows, lows[1:]))
        mus = [math.exp(log_delta0(0.8, 50, 0.5, m)) for m in (1.0, 1.5, 3.0, 10.0)]
        assert all(a <= b + 1e-15 for a, b in zip(mus, mus[1:]))


class TestGuaranteeCurve:
    def test_endpoints(self):
        reports = guarantee_curve([0.0, 1.0], P=50, kappa=0.5, mu0=1.5, K=2, M=50)
        assert reports[0].success_lower_bound == 0.0
        assert reports[1].success_lower_bound == max(
            r.success_lower_bound for r in reports
        )

    def test_success_bound_non_decreasing_in_p0(self):
        grid = np.linspace(0, 1, 51)
        reports = guarantee_curve(grid, P=50, kappa=0.5, mu0=1.5, K=2, M=50)
        bounds = [r.success_lower_bound for r in reports]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))
        assert 0.0 <= min(bounds) and max(bounds) <= 1.0

    def test_higher_kappa_curve_lies_below(self):
        grid = np.linspace(0, 1, 26)
        low = guarantee_curve(grid, P=50, kappa=0.5, mu0=1.5, K=2, M=50)
        high = guarantee_curve(grid, P=50, kappa=0.9, mu0=1.5, K=2, M=50)
        assert all(
            h.success_lower_bound <= l.success_lower_bound + 1e-12
            for l, h in zip(low, high)
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            guarantee_curve([], P=10, kappa=0.5, mu0=1.5, K=2, M=5)

    def test_kappa_error_propagates(self):
        with pytest.raises(ValueError, match="kappa >= 1"):
            guarantee_curve([0.5], P=10, kappa=1.2, mu0=1.5, K=2, M=5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(p0=1.5),
            dict(P=0),
            dict(kappa=-0.1),
            dict(mu0=0.5),
            dict(K=1),
            dict(M=1),
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_every_out_of_domain_input_propagates(self, bad):
        # The formulas check their own inputs, so each one outside its
        # domain surfaces from the curve as ValueError.
        point = dict(p0=0.5, P=10, kappa=0.5, mu0=1.5, K=2, M=5) | bad
        with pytest.raises(ValueError):
            guarantee_curve([point.pop("p0")], **point)


class TestReportInvariants:
    @pytest.mark.parametrize("p0", (0.1, 0.5, 0.9))
    def test_beta_recomposes_from_parts(self, p0):
        rep = evaluate_guarantees(p0=p0, P=40, kappa=0.4, mu0=2.0, K=2, M=8)
        recomposed = 1.0 - (1.0 - rep.delta0) * (1.0 - rep.gamma0)
        assert rep.beta0 == pytest.approx(recomposed, rel=1e-12)

    @pytest.mark.parametrize("value", (-0.5, -5.0, -30.0))
    def test_log_round_trip(self, value):
        assert math.log(math.exp(value)) == pytest.approx(value, rel=1e-12)
