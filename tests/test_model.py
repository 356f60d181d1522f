import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusecluster.model import (
    ClusterGeometry,
    ObservedDataset,
    Partition,
    SyntheticSpec,
    _pairwise_sq_dists,
    coherence,
    estimate_geometry,
)


class TestCoherence:
    def test_constant_vector_attains_minimum(self):
        assert coherence([3.7] * 10) == pytest.approx(1.0)

    def test_one_hot_attains_maximum(self):
        y = np.zeros(10)
        y[0] = 2.5
        assert coherence(y) == pytest.approx(10.0)

    def test_hand_value(self):
        assert coherence([3.0, 4.0]) == pytest.approx(1.28, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            coherence(np.zeros(4))

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_scale_invariance_and_range(self, values, scale, sign):
        y = np.asarray(values)
        if not np.any(y != 0):
            return
        c = coherence(y)
        assert 1.0 - 1e-9 <= c <= len(values) + 1e-9
        # A peak scaled below the normal range keeps too few bits for the
        # ratio, or underflows to the zero vector that coherence rejects.
        assume(np.abs(y).max() * scale >= np.finfo(float).tiny)
        assert coherence(sign * scale * y) == pytest.approx(c, rel=1e-9)


class TestObservedDataset:
    def test_shape_properties(self):
        d = ObservedDataset.full(np.zeros((3, 5)))
        assert d.feature_count == 3 and d.point_count == 5
        assert d.fully_observed

    def test_masked_values_are_carried_but_inert(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [True, True]])
        a = ObservedDataset(values, mask)
        poisoned = values.copy()
        poisoned[0, 1] = np.nan
        b = ObservedDataset(poisoned, mask)
        assert np.array_equal(a.observed_values(), b.observed_values())
        assert np.isnan(b.values[0, 1])  # carried verbatim

    def test_rejects_nonfinite_observed(self):
        with pytest.raises(ValueError, match="finite"):
            ObservedDataset(np.array([[np.inf]]), np.array([[True]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ObservedDataset(np.zeros((0, 3)), np.zeros((0, 3), dtype=bool))

    def test_immutable(self):
        d = ObservedDataset.full(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0


class TestPartition:
    def test_surjection_enforced(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]))  # label 1 missing

    def test_canonical_first_occurrence(self):
        p = Partition(np.array([2, 2, 0, 1])).canonical()
        assert p.labels.tolist() == [0, 0, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
    def test_canonical_matches_first_occurrence_loop(self, raw):
        labels = np.unique(raw, return_inverse=True)[1]  # onto 0..K-1
        mapping = {}  # reference: number labels as they first occur
        want = [mapping.setdefault(lab, len(mapping)) for lab in labels.tolist()]
        assert Partition(labels).canonical().labels.tolist() == want

    def test_same_clustering_up_to_permutation(self):
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([1, 1, 0, 0]))
        c = Partition(np.array([0, 1, 0, 1]))
        assert a.same_clustering(b)
        assert not a.same_clustering(c)

    def test_group_sizes(self):
        assert Partition(np.array([0, 1, 1])).group_sizes().tolist() == [1, 2]

    def test_same_clustering_identical(self):
        p = Partition(np.array([0, 1, 0]))
        assert p.same_clustering(p)

    def test_same_clustering_swapped_labels(self):
        assert Partition(np.array([0, 0, 1, 1])).same_clustering(
            Partition(np.array([1, 1, 0, 0]))
        )

    def test_same_clustering_one_point_moved(self):
        assert not Partition(np.array([0, 0, 1, 1])).same_clustering(
            Partition(np.array([0, 1, 1, 1]))
        )

    def test_same_clustering_length_mismatch(self):
        with pytest.raises(ValueError, match="same number of points"):
            Partition(np.array([0])).same_clustering(Partition(np.array([0, 0])))


class TestClusterGeometry:
    def test_single_cluster_convention(self):
        g = ClusterGeometry(delta=math.inf, epsilon=0.5, mu0=1.0, P=3)
        assert g.kappa == 0.0


class TestEstimateGeometry:
    def test_two_singletons_hand_values(self):
        data = ObservedDataset.full(np.array([[0.0, 3.0], [0.0, 4.0]]))
        g = estimate_geometry(data, Partition(np.array([0, 1])))
        assert g.delta == pytest.approx(5.0)
        assert g.epsilon == 0.0
        assert g.kappa == 0.0
        assert g.mu0 == pytest.approx(1.28)

    def test_identical_pair_single_cluster(self):
        data = ObservedDataset.full(np.array([[1.0, 1.0], [2.0, 2.0]]))
        g = estimate_geometry(data, Partition(np.array([0, 0])))
        assert g.epsilon == 0.0
        assert math.isinf(g.delta) and g.kappa == 0.0 and g.mu0 == 1.0

    def test_two_pair_clusters_hand_values(self):
        # Clusters {(0,0),(1,0)} and {(0,5),(1,5)}: the four cross distances
        # are 5, sqrt(26), sqrt(26), 5.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0], [1.0, 5.0]]).T
        data = ObservedDataset.full(pts)
        g = estimate_geometry(data, Partition(np.array([0, 0, 1, 1])))
        assert g.epsilon == pytest.approx(1.0)
        assert g.delta == pytest.approx(5.0)
        assert g.kappa == pytest.approx(1.0 * math.sqrt(2) / 5.0)

    def test_requires_full_observation(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[0, 1] = False
        data = ObservedDataset(np.zeros((2, 2)), mask)
        with pytest.raises(ValueError, match="full observation"):
            estimate_geometry(data, Partition(np.array([0, 1])))

    def test_coincident_cross_cluster_points_rejected(self):
        data = ObservedDataset.full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="delta"):
            estimate_geometry(data, Partition(np.array([0, 1])))

    def test_permutation_invariance(self, rng):
        values = rng.normal(size=(4, 12))
        values[:, 6:] += 10.0
        labels = np.array([0] * 6 + [1] * 6)
        data = ObservedDataset.full(values)
        g1 = estimate_geometry(data, Partition(labels))
        perm = rng.permutation(12)
        g2 = estimate_geometry(
            ObservedDataset.full(values[:, perm]), Partition(labels[perm])
        )
        assert g1.delta == pytest.approx(g2.delta, rel=1e-12)
        assert g1.epsilon == pytest.approx(g2.epsilon, rel=1e-12)
        assert g1.mu0 == pytest.approx(g2.mu0, rel=1e-12)

    def test_label_permutation_invariance(self, rng):
        values = rng.normal(size=(3, 8))
        values[:, 4:] += 8.0
        labels = np.array([0] * 4 + [1] * 4)
        data = ObservedDataset.full(values)
        g1 = estimate_geometry(data, Partition(labels))
        g2 = estimate_geometry(data, Partition(1 - labels))
        assert g1 == g2

    def test_kappa_matches_formula(self, rng):
        values = rng.normal(size=(5, 10))
        values[:, 5:] += 6.0
        data = ObservedDataset.full(values)
        g = estimate_geometry(data, Partition(np.array([0] * 5 + [1] * 5)))
        assert g.kappa == pytest.approx(g.epsilon * math.sqrt(g.P) / g.delta, rel=1e-12)


def linf_loop(values):
    """Reference for the sup-norm reduce: the per-feature loop that
    estimate_geometry used before the shared blocked kernel."""
    n = values.shape[1]
    out = np.zeros((n, n))
    for row in values:
        np.maximum(out, np.abs(row[:, None] - row[None, :]), out=out)
    return out


class TestPairwiseSqDists:
    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(1, 6),
        n=st.integers(1, 12),
        scale=st.sampled_from([1.0, 1e-150, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_kernel_is_bitwise_the_expression(self, p, n, scale, seed):
        values = np.random.default_rng(seed).normal(size=(p, n)) * scale
        values[:, n // 2] = values[:, 0]  # a coincident pair
        # Reference: the out-of-place form the in-place kernel replaced, on
        # the copied left operand the kernel takes (gemm, not syrk).
        g = values.copy().T @ values
        sq = np.einsum("pi,pi->i", values, values)
        d2 = sq[:, None] + sq[None, :] - 2.0 * g
        d2 = 0.5 * (d2 + d2.T)
        np.fill_diagonal(d2, 0.0)
        assert np.array_equal(_pairwise_sq_dists(values), np.maximum(d2, 0.0))


class TestSyntheticSpec:
    def test_validates_center_shape(self):
        with pytest.raises(ValueError, match="centers"):
            SyntheticSpec(K=2, M=3, P=4, centers=np.zeros((2, 3)))

    @pytest.mark.parametrize("variance", (-0.1, math.nan))
    def test_rejects_negative_variance(self, variance):
        with pytest.raises(ValueError, match="variance"):
            SyntheticSpec(K=1, M=1, P=1, centers=np.zeros((1, 1)), variance=variance)
