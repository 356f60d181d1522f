import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fusecluster.model import ObservedDataset
from fusecluster.penalty import PenaltySpec, default_h1_sigma, phi, surrogate, weight
from fusecluster.solver import _fuse_threshold, update_weights

H1_UNIT = PenaltySpec.h1(1.0)
LP_HALF = PenaltySpec.lp(0.5)


class TestPhi:
    def test_zero_for_both_kinds(self):
        assert phi(0.0, H1_UNIT) == 0.0
        assert phi(0.0, LP_HALF) == 0.0

    def test_h1_hand_value(self):
        assert phi(1.0, H1_UNIT) == pytest.approx(1 - math.exp(-0.5), rel=1e-14)

    def test_lp_hand_value(self):
        assert phi(4.0, LP_HALF) == pytest.approx(2.0, rel=1e-15)

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_h1_non_decreasing_and_bounded(self, a, b):
        lo, hi = sorted((a, b))
        assert phi(lo, H1_UNIT) <= phi(hi, H1_UNIT) + 1e-15
        assert 0.0 <= phi(hi, H1_UNIT) <= 1.0


class TestWeight:
    def test_h1_continuous_limit_at_zero(self):
        assert weight(0.0, H1_UNIT) == pytest.approx(0.5, rel=1e-15)
        assert weight(0.0, PenaltySpec.h1(2.0)) == pytest.approx(0.125, rel=1e-15)

    def test_lp_p1_hand_value(self):
        assert weight(5.0, PenaltySpec.lp(1.0)) == pytest.approx(0.1, rel=1e-15)

    def test_lp_floor_bounds_weight(self):
        # The one floor is the fuse threshold: coincident columns get its
        # weight, finite and the same for every coincident pair.
        col = np.array([[0.3], [-0.7]])
        u = np.hstack([col, col, col + 1.0])
        w = update_weights(u, LP_HALF)
        floor = weight(_fuse_threshold(LP_HALF, u), LP_HALF)
        assert np.isfinite(floor) and floor > 0
        assert w[0, 1] == w[1, 0] == floor
        assert w[0, 2] == weight(np.sqrt(2.0), LP_HALF) < floor

    @given(st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50))
    @example(0.0, 7.289015029413482e-215)  # the lp weight overflows to inf here
    def test_non_increasing_in_distance(self, a, b):
        lo, hi = sorted((a, b))
        for spec in (H1_UNIT, LP_HALF):
            # weight(0, lp) is inf by design, and so is the lp weight of a
            # tiny x: p / (2 x^(2-p)) overflows.
            with np.errstate(divide="ignore", over="ignore"):
                assert weight(hi, spec) <= weight(lo, spec) * (1 + 1e-12)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        assert weight(x, H1_UNIT).shape == (3,)


@pytest.mark.parametrize("spec", (H1_UNIT, PenaltySpec.h1(0.4), LP_HALF, PenaltySpec.lp(0.9)))
class TestMajorization:
    def test_surrogate_dominates_and_is_tangent(self, spec, rng):
        x0 = rng.uniform(1e-6, 5.0, size=400)
        x = rng.uniform(0.0, 8.0, size=400)
        gap = surrogate(x, x0, spec) - phi(x, spec)
        assert gap.min() >= -1e-10
        tangency = surrogate(x0, x0, spec) - phi(x0, spec)
        assert np.abs(tangency).max() <= 1e-10


class TestDefaultSigma:
    def test_full_observation_matches_plain_median(self, rng):
        values = rng.normal(size=(6, 15))
        data = ObservedDataset.full(values)
        dists = [
            np.linalg.norm(values[:, i] - values[:, j])
            for i in range(15)
            for j in range(i + 1, 15)
        ]
        assert default_h1_sigma(data) == pytest.approx(0.5 * np.median(dists), rel=1e-12)

    def test_rescales_for_missing_coordinates(self, rng):
        # With half the coordinates hidden, the rescaled estimate should stay
        # near the full-data value rather than shrink with the mask.
        values = rng.normal(size=(40, 30))
        full = default_h1_sigma(ObservedDataset.full(values))
        mask = rng.random(values.shape) < 0.5
        masked = default_h1_sigma(ObservedDataset(values, mask))
        assert masked == pytest.approx(full, rel=0.25)

    def test_degenerate_data_falls_back_to_one(self):
        data = ObservedDataset.full(np.zeros((3, 4)))
        assert default_h1_sigma(data) == 1.0

    def test_single_point(self):
        data = ObservedDataset.full(np.ones((3, 1)))
        assert default_h1_sigma(data) == 1.0


class TestSpecValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            PenaltySpec.h1(0.0)

    def test_p_range(self):
        with pytest.raises(ValueError):
            PenaltySpec.lp(1.5)
        with pytest.raises(ValueError):
            PenaltySpec.lp(0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "lp", "p": 0.5, "sigma": -5.0}, "lp takes 0 < p <= 1 and no sigma"),
            ({"kind": "lp", "p": 0.5, "sigma": 1.0}, "lp takes 0 < p <= 1 and no sigma"),
            ({"kind": "h1", "sigma": 1.0, "p": 7.0}, "h1 takes sigma > 0 and no p"),
            ({"kind": "h1", "sigma": 1.0, "p": 0.5}, "h1 takes sigma > 0 and no p"),
            ({"kind": "h1"}, "h1 takes sigma > 0"),
            ({"kind": "h1", "sigma": math.inf}, "h1 takes sigma > 0"),
            ({"kind": "lp"}, "lp takes 0 < p <= 1"),
        ],
        ids=[
            "lp-bad-sigma", "lp-sigma", "h1-bad-p", "h1-p", "h1-no-sigma", "h1-inf-sigma",
            "lp-no-p",
        ],
    )
    def test_one_parameter_of_its_own_kind(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PenaltySpec(**kwargs)

    @pytest.mark.parametrize("kind", ["scad", "H1", "l1", ""])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown penalty kind"):
            PenaltySpec(kind=kind)
