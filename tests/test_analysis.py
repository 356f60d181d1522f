import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecluster.analysis import (
    SuccessCurveSpec,
    adjusted_rand_index,
    cluster_once,
    exact_success,
    fill_missing,
    pca_plot_table,
    pca_project,
    success_curve,
)
from fusecluster.datagen import gen_uniform_kappa
from fusecluster.model import ObservedDataset, Partition


def ari_brute_force(a, b):
    """Independent pair-counting evaluation of the adjusted Rand index."""
    n = len(a)
    pairs = list(itertools.combinations(range(n), 2))
    both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    a_only = sum(1 for i, j in pairs if a[i] == a[j])
    b_only = sum(1 for i, j in pairs if b[i] == b[j])
    total = len(pairs)
    expected = a_only * b_only / total
    max_index = 0.5 * (a_only + b_only)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


labels_strategy = st.lists(st.integers(0, 3), min_size=2, max_size=12)


def as_partition(raw):
    mapping = {}
    return Partition(np.array([mapping.setdefault(v, len(mapping)) for v in raw]))


class TestExactSuccess:
    def test_identical(self):
        p = Partition(np.array([0, 1, 0]))
        assert exact_success(p, p)

    def test_swapped_labels(self):
        assert exact_success(
            Partition(np.array([0, 0, 1, 1])), Partition(np.array([1, 1, 0, 0]))
        )

    def test_one_point_moved(self):
        assert not exact_success(
            Partition(np.array([0, 0, 1, 1])), Partition(np.array([0, 1, 1, 1]))
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exact_success(Partition(np.array([0])), Partition(np.array([0, 0])))


class TestAdjustedRandIndex:
    def test_perfect_agreement(self):
        p = Partition(np.array([0, 1, 2, 1]))
        assert adjusted_rand_index(p, p) == 1.0

    def test_hand_value_minus_half(self):
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([0, 1, 0, 1]))
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5)
        assert ari_brute_force(a.labels, b.labels) == pytest.approx(-0.5)

    def test_single_cluster_vs_split_is_zero(self):
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([0, 0, 0, 0]))
        assert adjusted_rand_index(a, b) == pytest.approx(0.0)

    @given(labels_strategy, labels_strategy)
    def test_matches_brute_force_and_symmetric(self, raw_a, raw_b):
        if len(raw_a) != len(raw_b):
            raw_b = (raw_b * len(raw_a))[: len(raw_a)]
        a, b = as_partition(raw_a), as_partition(raw_b)
        ari = adjusted_rand_index(a, b)
        assert ari == pytest.approx(ari_brute_force(a.labels, b.labels), abs=1e-12)
        assert ari == pytest.approx(adjusted_rand_index(b, a), abs=1e-12)
        assert -1.0 - 1e-9 <= ari <= 1.0 + 1e-9

    def test_invariant_to_label_permutation(self):
        a = Partition(np.array([0, 0, 1, 2, 2]))
        b = Partition(np.array([1, 1, 0, 0, 2]))
        relabeled = Partition((a.labels + 1) % 3)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(relabeled, b), abs=1e-12
        )

    def test_random_shuffle_near_zero_mean(self, rng):
        base = np.array([0] * 20 + [1] * 20)
        a = Partition(base)
        values = []
        for _ in range(1000):
            values.append(adjusted_rand_index(a, Partition(rng.permutation(base))))
        assert abs(np.mean(values)) < 0.1


class TestPCAProject:
    def test_collinear_second_component_vanishes(self):
        t = np.linspace(0, 1, 9)
        pts = np.vstack([t, 2 * t, -t])
        coords = pca_project(pts, dims=2)
        assert np.abs(coords[1]).max() <= 1e-10

    def test_planar_distances_preserved(self, rng):
        pts = rng.normal(size=(2, 10))
        coords = pca_project(pts, dims=2)
        for i in range(10):
            for j in range(10):
                orig = np.linalg.norm(pts[:, i] - pts[:, j])
                proj = np.linalg.norm(coords[:, i] - coords[:, j])
                assert proj == pytest.approx(orig, abs=1e-9)

    def test_captures_maximal_variance(self, rng):
        pts = rng.normal(size=(6, 40)) * np.array([5, 3, 1, 1, 1, 1])[:, None]
        coords = pca_project(pts, dims=2)
        captured = coords.var(axis=1, ddof=0).sum()
        centered = pts - pts.mean(axis=1, keepdims=True)
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            other = (q.T @ centered).var(axis=1, ddof=0).sum()
            assert other <= captured + 1e-8

    def test_equivariant_to_orthogonal_rotation(self, rng):
        pts = rng.normal(size=(4, 15))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        c1 = pca_project(pts, dims=2)
        c2 = pca_project(q @ pts, dims=2)
        d1 = np.linalg.norm(c1[:, :, None] - c1[:, None, :], axis=0)
        d2 = np.linalg.norm(c2[:, :, None] - c2[:, None, :], axis=0)
        np.testing.assert_allclose(d1, d2, atol=1e-8)

    def test_deterministic_sign_convention(self, rng):
        pts = rng.normal(size=(3, 8))
        c1 = pca_project(pts, dims=2)
        c2 = pca_project(pts, dims=2)
        assert np.array_equal(c1, c2)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((3, 1)))


class TestFillMissing:
    def test_centroid_fill_only_touches_masked(self, rng):
        values = rng.normal(size=(3, 5))
        mask = rng.random((3, 5)) < 0.5
        data = ObservedDataset(values, mask)
        centroids = rng.normal(size=(3, 5))
        filled = fill_missing(data, centroids)
        assert np.array_equal(filled[mask], values[mask])
        assert np.array_equal(filled[~mask], centroids[~mask])


class TestPcaPlotTable:
    def test_row_shape_and_labels(self, rng):
        values = rng.normal(size=(4, 6))
        data = ObservedDataset.full(values)
        truth = Partition(np.array([0, 0, 0, 1, 1, 1]))
        rows = pca_plot_table(data, values.copy(), truth)
        assert len(rows) == 6
        assert rows[0][0] == 0 and rows[0][1] == 0
        assert len(rows[0]) == 6

    def test_without_truth_labels(self, rng):
        values = rng.normal(size=(3, 4))
        rows = pca_plot_table(ObservedDataset.full(values), values.copy(), None)
        assert all(r[1] == -1 for r in rows)


class TestSuccessCurve:
    @pytest.mark.parametrize(
        "field, value",
        [("trials", 0), ("p0_grid", ()), ("M_grid", ()), ("lambda_grid", ())],
    )
    def test_spec_rejects_empty_grids_and_no_trials(self, field, value):
        grids = dict(p0_grid=(1.0,), M_grid=(4,), lambda_grid=(8.0,))
        with pytest.raises(ValueError):
            SuccessCurveSpec(**{**grids, field: value})

    def test_deterministic_and_sorted(self):
        spec = SuccessCurveSpec(
            p0_grid=(1.0, 0.5),
            M_grid=(4,),
            lambda_grid=(8.0,),
            trials=2,
            base_seed=7,
            sigma=1.0,
            max_outer_iters=60,
        )

        def generator(m, seed):
            return gen_uniform_kappa(2, m, 12, 0.4, seed=seed)

        cells1 = success_curve(generator, spec)
        cells2 = success_curve(generator, spec)
        assert cells1 == cells2
        assert [(c.p0, c.M) for c in cells1] == [(1.0, 4), (0.5, 4)]
        for c in cells1:
            assert 0.0 <= c.success_rate <= 1.0
            assert c.kappa > 0 and c.mu0 >= 1

    def test_full_observation_easy_instance_succeeds(self):
        spec = SuccessCurveSpec(
            p0_grid=(1.0,),
            M_grid=(5,),
            lambda_grid=(2.0, 8.0, 32.0),
            trials=3,
            base_seed=1,
            sigma=1.0,
            max_outer_iters=80,
        )

        def generator(m, seed):
            return gen_uniform_kappa(2, m, 20, 0.3, seed=seed)

        (cell,) = success_curve(generator, spec)
        assert cell.success_rate == 1.0


class TestClusterOnce:
    def test_reports_run_metadata(self):
        data, truth, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        run = cluster_once(data, lam=8.0, sigma=1.0)
        assert run.partition.point_count == 10
        assert run.trace.objectives.ndim == 1
        assert run.merge_tol > 0
        assert run.sigma == 1.0

    @pytest.mark.parametrize("kind", ["H1", "l1", ""])
    def test_unknown_penalty_kind_raises(self, kind):
        data, _, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        with pytest.raises(ValueError, match="unknown penalty kind"):
            cluster_once(data, lam=1.0, penalty_kind=kind)

    def test_auto_sigma_recorded(self):
        data, truth, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        run = cluster_once(data, lam=1.0)
        assert run.sigma is not None and run.sigma > 0
