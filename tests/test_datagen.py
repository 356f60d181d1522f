import math

import numpy as np
import pytest

from fusecluster import datagen
from fusecluster.datagen import (
    MaskSpec,
    apply_mask,
    block_centers,
    gen_uniform_kappa,
    generate,
    load_wine_csv,
    wine_prepare,
)
from fusecluster.model import ObservedDataset, SyntheticSpec, estimate_geometry


def gaussian_spec(K=3, M=200, P=50, variance=0.1, scale=6.0, seed=0):
    return SyntheticSpec(
        K=K, M=M, P=P, centers=block_centers(K, P, scale),
        variance=variance, seed=seed,
    )


class TestBlockCenters:
    def test_shape_and_energy(self):
        c = block_centers(3, 10, 2.0)
        assert c.shape == (3, 10)
        assert np.all(c.sum(axis=0) == 2.0)  # blocks partition the coordinates


class TestGenGaussian:
    def test_deterministic_given_seed(self):
        d1, t1 = generate(gaussian_spec(seed=5))
        d2, t2 = generate(gaussian_spec(seed=5))
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(t1.labels, t2.labels)
        d3, _ = generate(gaussian_spec(seed=6))
        assert not np.array_equal(d1.values, d3.values)

    def test_zero_variance_collapses_to_centers(self):
        data, truth = generate(gaussian_spec(K=2, M=3, P=4, variance=0.0))
        geom = estimate_geometry(data, truth)
        assert geom.epsilon == 0.0

    def test_cluster_means_near_centers(self):
        spec = gaussian_spec(seed=11)
        data, truth = generate(spec)
        sd = math.sqrt(0.1)
        for k in range(spec.K):
            sample_mean = data.values[:, truth.labels == k].mean(axis=1)
            tol = 3 * sd / math.sqrt(spec.M)
            assert np.all(np.abs(sample_mean - spec.centers[k]) <= 4 * tol)

    def test_halved_separation_halves_delta(self):
        d1, t1 = generate(gaussian_spec(K=2, M=100, P=20, scale=8.0, seed=3))
        d2, t2 = generate(gaussian_spec(K=2, M=100, P=20, scale=4.0, seed=3))
        g1 = estimate_geometry(d1, t1)
        g2 = estimate_geometry(d2, t2)
        assert g2.delta == pytest.approx(g1.delta / 2, rel=0.1)


class TestGenUniformKappa:
    def test_hits_target_window(self):
        data, truth, geom = gen_uniform_kappa(2, 50, 50, 0.39, seed=4)
        assert 0.37 <= geom.kappa <= 0.41
        assert data.point_count == 100 and data.feature_count == 50

    def test_deterministic(self):
        d1, _, g1 = gen_uniform_kappa(2, 10, 20, 0.5, seed=9)
        d2, _, g2 = gen_uniform_kappa(2, 10, 20, 0.5, seed=9)
        assert np.array_equal(d1.values, d2.values)
        assert g1 == g2

    def test_small_target_shrinks_epsilon(self):
        _, _, tight = gen_uniform_kappa(2, 5, 10, 0.05, seed=2)
        _, _, loose = gen_uniform_kappa(2, 5, 10, 0.8, seed=2)
        assert tight.epsilon < loose.epsilon

    def test_reported_geometry_is_self_consistent(self):
        _, _, geom = gen_uniform_kappa(3, 8, 12, 0.6, seed=5)
        assert geom.kappa == pytest.approx(
            geom.epsilon * math.sqrt(geom.P) / geom.delta, rel=1e-9
        )

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            gen_uniform_kappa(2, 4, 6, 0.0, seed=0)

    @pytest.mark.parametrize(
        "K, M, name", [(1, 4, "K"), (0, 4, "K"), (2, 1, "M"), (3, 0, "M")]
    )
    def test_rejects_fewer_than_two_clusters_or_points(self, K, M, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 2"):
            gen_uniform_kappa(K, M, 6, 0.5, seed=0)

    def test_unreachable_target_fails_to_bracket(self):
        # kappa saturates as the noise dominates the centers, so absurd
        # targets cannot be bracketed.
        with pytest.raises(RuntimeError, match="bracket"):
            gen_uniform_kappa(2, 4, 6, 1e6, seed=0)

    def test_zero_tolerance_exhausts_bisection(self, monkeypatch):
        monkeypatch.setattr(datagen, "_KAPPA_REL_TOL", 0.0)
        with pytest.raises(RuntimeError, match="100 bisection steps"):
            gen_uniform_kappa(2, 4, 6, 0.5, seed=0)


class TestApplyMask:
    def test_p0_one_keeps_everything(self):
        data, _ = generate(gaussian_spec(K=2, M=5, P=4))
        masked = apply_mask(data, MaskSpec(p0=1.0, seed=0))
        assert masked.mask.all()
        assert np.array_equal(masked.values, data.values)

    def test_p0_zero_hides_everything(self):
        data, _ = generate(gaussian_spec(K=2, M=5, P=4))
        masked = apply_mask(data, MaskSpec(p0=0.0, seed=0))
        assert not masked.mask.any()

    def test_fraction_within_binomial_band(self):
        data, _ = generate(gaussian_spec(K=2, M=100, P=50))
        masked = apply_mask(data, MaskSpec(p0=0.5, seed=123))
        frac = masked.mask.mean()
        assert 0.48 <= frac <= 0.52  # 4 sigma on 10000 entries

    def test_values_unchanged(self):
        data, _ = generate(gaussian_spec(K=2, M=5, P=4))
        masked = apply_mask(data, MaskSpec(p0=0.3, seed=7))
        assert np.array_equal(masked.values, data.values)

    def test_requires_full_observation(self):
        data = ObservedDataset(np.zeros((2, 2)), np.array([[True, False], [True, True]]))
        with pytest.raises(ValueError, match="fully observed"):
            apply_mask(data, MaskSpec(p0=0.5, seed=0))

    def test_mask_spec_validation(self):
        with pytest.raises(ValueError):
            MaskSpec(p0=1.5)


class TestWine:
    def test_shapes_and_counts(self, wine_csv):
        data, truth = wine_prepare(wine_csv)
        assert data.feature_count == 13
        assert data.point_count == 120
        assert truth.group_sizes().tolist() == [40, 40, 40]
        assert data.fully_observed

    def test_standardization_regression_values(self, wine_csv):
        # Standardization happens before trimming, so retained columns keep
        # near-zero means and near-unit spreads.
        data, _ = wine_prepare(wine_csv)
        means = data.values.mean(axis=1)
        stds = data.values.std(axis=1)
        assert np.abs(means).max() <= 0.5
        assert stds.min() >= 0.5 and stds.max() <= 1.5

    def test_deterministic(self, wine_csv):
        d1, t1 = wine_prepare(wine_csv)
        d2, t2 = wine_prepare(wine_csv)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(t1.labels, t2.labels)

    def test_m_per_class_bound(self, wine_csv):
        with pytest.raises(ValueError, match="smallest class"):
            wine_prepare(wine_csv, m_per_class=49)

    def test_checksum_matches_reference_copy(self, wine_csv):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_wine_csv(wine_csv)

    def test_modified_content_warns(self, wine_csv, tmp_path):
        lines = open(wine_csv).read().splitlines()
        first = lines[0].split(",")
        first[1] = "99.9"
        lines[0] = ",".join(first)
        path = tmp_path / "tampered.data"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="checksum"):
            load_wine_csv(path)

    def test_row_count_mismatch_rejected(self, wine_csv, tmp_path):
        lines = open(wine_csv).read().splitlines()
        path = tmp_path / "short.data"
        path.write_text("\n".join(lines[:100]) + "\n")
        with pytest.raises(ValueError, match="rows"):
            load_wine_csv(path)

    def test_column_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("1,1.0,2.0\n")
        with pytest.raises(ValueError, match="fields"):
            load_wine_csv(path)


def _nearest_rows(labels, standardized, m):
    """Reference trim: per class, the m rows nearest the class mean, ties
    broken by row order, listed in row order."""
    keep = []
    for cls in range(3):
        idx = np.nonzero(labels == cls)[0]
        dists = np.linalg.norm(standardized[idx] - standardized[idx].mean(axis=0), axis=1)
        nearest = sorted(range(idx.size), key=lambda j: (dists[j], idx[j]))[:m]
        keep += sorted(idx[nearest].tolist())
    return keep


@pytest.mark.filterwarnings("ignore:wine table content")
class TestWineSynthetic:
    """The Wine pipeline's mechanics on a table that needs no external data."""

    def test_comment_lines_skipped_and_classes_remapped(self, synthetic_wine):
        path, raw_labels, features = synthetic_wine()
        labels, loaded = load_wine_csv(path)
        assert labels.tolist() == (raw_labels - 1).tolist()
        assert np.array_equal(loaded, features)

    def test_zscore_over_all_rows_then_trim(self, synthetic_wine):
        path, raw_labels, features = synthetic_wine()
        data, truth = wine_prepare(path, m_per_class=40)
        standardized = (features - features.mean(axis=0)) / features.std(axis=0)
        keep = _nearest_rows(raw_labels - 1, standardized, 40)
        np.testing.assert_allclose(data.values, standardized[keep].T, rtol=0, atol=1e-12)
        assert truth.labels.tolist() == [0] * 40 + [1] * 40 + [2] * 40

    def test_ties_keep_the_earlier_rows(self, synthetic_wine):
        # Each column holds as many +1 as -1 entries, both in the 48-row class
        # and in the other 130 rows.  z-scoring then leaves every value as it
        # is, and all 48 rows lie exactly sqrt(13) from their class mean.
        _, labels, _ = synthetic_wine()
        rng = np.random.default_rng(5)
        features = np.empty((178, 13))
        for rows in (labels == 3, labels != 3):
            signs = np.repeat([1.0, -1.0], rows.sum() // 2)
            features[rows] = np.column_stack([rng.permutation(signs) for _ in range(13)])
        path, _, _ = synthetic_wine(labels, features)
        data, _ = wine_prepare(path, m_per_class=40)
        tied = np.nonzero(labels == 3)[0]
        np.testing.assert_array_equal(data.values[:, 80:], features[tied[:40]].T)

    @pytest.mark.parametrize("m", [-5, 0])
    def test_m_per_class_below_one_rejected(self, synthetic_wine, m):
        path, _, _ = synthetic_wine()
        with pytest.raises(ValueError, match=f"m_per_class must be at least 1, got {m}$"):
            wine_prepare(path, m_per_class=m)

    def test_checksum_warning(self, synthetic_wine):
        path, _, _ = synthetic_wine()
        with pytest.warns(UserWarning, match="checksum"):
            load_wine_csv(path)

    def test_malformed_tables_rejected(self, synthetic_wine):
        _, labels, features = synthetic_wine()
        for table, message in [
            ((labels[:177], features[:177]), "177 rows"),
            ((labels, features[:, :12]), "13 fields"),
            ((np.minimum(labels, 2), features), "2 classes"),
        ]:
            path, _, _ = synthetic_wine(*table)
            with pytest.raises(ValueError, match=message):
                load_wine_csv(path)

    def test_indented_comment_line_skipped(self, synthetic_wine):
        path, raw_labels, features = synthetic_wine()
        lines = open(path).read().splitlines()
        lines.insert(1, "   # an indented comment, as the dataset reader takes it")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        labels, loaded = load_wine_csv(path)
        assert labels.tolist() == (raw_labels - 1).tolist()
        # C order: wine_prepare's z-scoring sums a transposed view in
        # another order, which moves its outputs in the last bits.
        assert np.array_equal(loaded, features) and loaded.flags.c_contiguous

    @pytest.mark.parametrize("entry", ["NaN", ""], ids=["nan", "empty"])
    def test_missing_entry_rejected(self, synthetic_wine, entry):
        path, _, _ = synthetic_wine()
        lines = open(path).read().splitlines()
        fields = lines[1].split(",")
        fields[5] = entry
        lines[1] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="wine table has missing entries"):
            load_wine_csv(path)

    def test_fractional_label_rejected(self, synthetic_wine):
        path, _, _ = synthetic_wine()
        lines = open(path).read().splitlines()
        lines[1] = "1.7," + lines[1].partition(",")[2]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="label '1.7' is not an integer"):
            load_wine_csv(path)

    def test_m_per_class_above_smallest_class_rejected(self, synthetic_wine):
        path, _, _ = synthetic_wine()
        wine_prepare(path, m_per_class=48)
        with pytest.raises(ValueError, match="smallest class size 48"):
            wine_prepare(path, m_per_class=49)
