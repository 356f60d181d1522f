import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecluster import model, solver

from fusecluster.datagen import MaskSpec, apply_mask, block_centers, generate
from fusecluster.model import ObservedDataset, Partition, SyntheticSpec
from fusecluster.penalty import PenaltySpec
from fusecluster.solver import (
    SolverConfig,
    default_merge_tol,
    extract_clusters,
    mean_imputed,
    mm_cluster,
    objective,
    objective_gradient,
    pairwise_distances,
    update_centroids,
    update_weights,
)
from test_model import linf_loop

H1_UNIT = PenaltySpec.h1(1.0)


def loop_distances(U):
    """Reference for the exact kernel: the per-feature loop it replaced."""
    U = np.asarray(U, dtype=float)
    n = U.shape[1]
    d2 = np.zeros((n, n))
    for row in U:
        diff = row[:, None] - row[None, :]
        d2 += diff * diff
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def union_find_labels(adj):
    """Reference for _components: union-find over the off-diagonal pairs,
    roots numbered in order of first occurrence."""
    parent = list(range(adj.shape[0]))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(*np.nonzero(adj)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    order = {}
    return np.array([order.setdefault(find(a), len(order)) for a in range(len(parent))])


def exact_block_budget(p, n, rows):
    """Value of model._EXACT_BLOCK_BYTES that makes the kernel fill ``rows``
    rows per pass on a P x N input."""
    return 8 * p * n * rows


def random_instance(seed, K=2, M=4, P=5, p0=1.0, scale=4.0, variance=0.1):
    spec = SyntheticSpec(
        K=K, M=M, P=P, centers=block_centers(K, P, scale),
        noise=("gaussian", variance), seed=seed,
    )
    data, truth = generate(spec)
    if p0 < 1.0:
        data = apply_mask(data, MaskSpec(p0=p0, seed=seed + 1000))
    return data, truth


def dense_systems(data, w, lam, rho):
    """Per-feature (A, b) of the centroid update, assembled as dense matrices."""
    mask_f = data.mask.astype(float)
    counts = data.mask.sum(axis=1)
    means = np.where(
        counts > 0, data.observed_values().sum(axis=1) / np.maximum(counts, 1), 0.0
    )
    laplacian = np.diag(w.sum(axis=1)) - w
    n = data.point_count
    for p in range(data.feature_count):
        a = np.diag(mask_f[p]) + 2 * lam * laplacian + rho * np.eye(n)
        b = mask_f[p] * data.observed_values()[p] + rho * means[p]
        yield a, b


class TestObjective:
    def test_identical_points_zero(self):
        col = np.array([[1.0], [2.0]])
        data = ObservedDataset.full(np.hstack([col, col]))
        assert objective(data, data.values, 5.0, H1_UNIT) == 0.0

    def test_single_point_pure_data_term(self):
        data = ObservedDataset.full(np.array([[1.0], [2.0]]))
        u = np.array([[0.0], [0.0]])
        assert objective(data, u, 3.0, H1_UNIT) == pytest.approx(5.0)

    def test_ordered_pair_hand_value(self):
        data = ObservedDataset.full(np.array([[0.0, 1.0]]))
        f = objective(data, data.values, 1.0, H1_UNIT)
        assert f == pytest.approx(2 * (1 - math.exp(-0.5)), rel=1e-14)

    def test_masked_entries_do_not_contribute(self, rng):
        values = rng.normal(size=(3, 4))
        mask = rng.random((3, 4)) < 0.6
        mask[:, 0] = True
        a = ObservedDataset(values, mask)
        poisoned = values + np.where(mask, 0.0, rng.normal(size=(3, 4)) * 100)
        b = ObservedDataset(poisoned, mask)
        u = rng.normal(size=(3, 4))
        assert objective(a, u, 0.7, H1_UNIT) == objective(b, u, 0.7, H1_UNIT)


class TestUpdateWeights:
    def test_coincident_columns_h1(self):
        col = np.array([[0.3], [0.7]])
        w = update_weights(np.hstack([col, col]), H1_UNIT)
        assert w[0, 1] == pytest.approx(0.5, rel=1e-15)
        assert w[0, 0] == 0.0

    def test_far_pair_saturates(self):
        w = update_weights(np.array([[0.0, 10.0]]), H1_UNIT)
        assert w[0, 1] < 1e-12

    def test_single_point(self):
        w = update_weights(np.array([[1.0]]), H1_UNIT)
        assert w.shape == (1, 1) and w[0, 0] == 0.0

    def test_symmetry(self, rng):
        w = update_weights(rng.normal(size=(3, 6)), PenaltySpec.lp(0.5))
        assert np.array_equal(w, w.T)


class TestUpdateCentroids:
    def test_decoupled_full_mask_returns_data(self):
        data = ObservedDataset.full(np.array([[0.0, 5.0], [1.0, -2.0]]))
        u = update_centroids(data, np.zeros((2, 2)), lam=0.5, rho=0.0)
        assert np.array_equal(u, data.values)

    def test_identical_points_stay_exact(self):
        col = np.array([[1 / 3], [0.1234567]])
        data = ObservedDataset.full(np.hstack([col, col]))
        u = update_centroids(data, np.array([[0.0, 0.9], [0.9, 0.0]]), lam=2.0, rho=1e-8)
        assert np.array_equal(u, data.values)

    def test_two_point_hand_solve(self):
        lam, w = 0.7, 0.3
        data = ObservedDataset.full(np.array([[0.0, 1.0]]))
        u = update_centroids(data, np.array([[0.0, w], [w, 0.0]]), lam, rho=0.0)
        expected = np.array(
            [2 * lam * w / (1 + 4 * lam * w), (1 + 2 * lam * w) / (1 + 4 * lam * w)]
        )
        np.testing.assert_allclose(u.ravel(), expected, rtol=1e-12)

    def test_rejects_asymmetric_weights(self):
        data = ObservedDataset.full(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            update_centroids(data, np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0, 0.0)

    def test_stationarity_residual(self):
        data, _ = random_instance(seed=3, K=2, M=5, P=6, p0=0.7)
        w = update_weights(mean_imputed(data), H1_UNIT)
        lam, rho = 0.8, 1e-8
        u = update_centroids(data, w, lam, rho)
        for p, (a, b) in enumerate(dense_systems(data, w, lam, rho)):
            resid = np.linalg.norm(a @ u[p] - b)
            assert resid < 1e-8 * max(np.linalg.norm(b), 1e-12)

    def test_cg_nonconvergence_reports_residual(self):
        data, _ = random_instance(seed=9, K=2, M=6, P=4, p0=0.6)
        w = update_weights(mean_imputed(data), H1_UNIT)
        from fusecluster.solver import ConvergenceError

        with pytest.raises(ConvergenceError) as err:
            update_centroids(data, w, 0.5, 1e-8, cg_maxiter_factor=0)
        assert err.value.residual_norm > 0

    def test_matches_dense_solve(self):
        data, _ = random_instance(seed=9, K=2, M=6, P=4, p0=0.6)
        w = update_weights(mean_imputed(data), H1_UNIT)
        lam, rho = 0.5, 1e-8
        u = update_centroids(data, w, lam, rho)
        dense = np.array([np.linalg.solve(a, b) for a, b in dense_systems(data, w, lam, rho)])
        np.testing.assert_allclose(u, dense, atol=1e-8)


class TestGradient:
    @pytest.mark.parametrize("kind", ("h1", "lp"))
    def test_matches_finite_differences(self, kind, rng):
        data, _ = random_instance(seed=5, K=2, M=3, P=4, p0=0.7)
        penalty = H1_UNIT if kind == "h1" else PenaltySpec.lp(0.5)
        u = mean_imputed(data) + 0.3 * rng.normal(size=(4, 6))
        lam = 0.6
        grad = objective_gradient(data, u, lam, penalty)
        scale = max(1.0, np.abs(u).max())
        h = 1e-6 * scale
        for _ in range(12):
            p = rng.integers(0, u.shape[0])
            i = rng.integers(0, u.shape[1])
            up, um = u.copy(), u.copy()
            up[p, i] += h
            um[p, i] -= h
            fd = (objective(data, up, lam, penalty) - objective(data, um, lam, penalty)) / (2 * h)
            assert grad[p, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestMMCluster:
    def test_fixed_point_identical_points_one_iteration(self):
        col = np.array([[1 / 3], [0.918273]])
        data = ObservedDataset.full(np.hstack([col] * 4))
        cfg = SolverConfig(lam=1.5, penalty=H1_UNIT, max_outer_iters=1)
        centroids, trace = mm_cluster(data, cfg)
        assert np.array_equal(centroids.U, data.values)
        assert trace.objectives.tolist() == [0.0, 0.0]

    def test_small_lambda_keeps_points_apart(self):
        data = ObservedDataset.full(np.array([[0.0, 10.0], [0.0, 10.0]]))
        cfg = SolverConfig(lam=1e-6, penalty=H1_UNIT, max_outer_iters=50)
        centroids, _ = mm_cluster(data, cfg)
        np.testing.assert_allclose(centroids.U, data.values, atol=1e-4)
        labels = extract_clusters(centroids.U, default_merge_tol(centroids.U))
        assert labels.cluster_count == 2

    def test_recovers_two_separated_clusters_with_sweep(self):
        # Gap >> diameter, so the exhaustive solver certifies the target
        # partition on the same instance the iterative sweep must find.
        data, truth = random_instance(seed=21, K=2, M=5, P=2, scale=8.0, variance=0.05)
        from fusecluster.model import estimate_geometry
        from fusecluster.oracle import l0_solve

        geom = estimate_geometry(data, truth)
        oracle = l0_solve(data, geom.epsilon)
        assert len(oracle.minimizers) == 1
        assert oracle.minimizers[0].same_clustering(truth)

        recovered = False
        for lam in (0.5, 2.0, 8.0):
            cfg = SolverConfig(
                lam=lam, penalty=PenaltySpec.h1(0.5), max_outer_iters=150,
                objective_rel_tol=1e-10,
            )
            centroids, _ = mm_cluster(data, cfg)
            part = extract_clusters(centroids.U, default_merge_tol(centroids.U))
            if part.same_clustering(truth):
                recovered = True
                break
        assert recovered

    @pytest.mark.parametrize("kind", ("h1", "lp"))
    def test_monotone_trace(self, kind):
        data, _ = random_instance(seed=33, K=3, M=4, P=6, p0=0.7)
        penalty = PenaltySpec.h1(0.8) if kind == "h1" else PenaltySpec.lp(0.5)
        cfg = SolverConfig(lam=0.9, penalty=penalty, max_outer_iters=80,
                           objective_rel_tol=1e-12)
        _, trace = mm_cluster(data, cfg)
        o = trace.objectives
        for a, b in zip(o, o[1:]):
            assert b <= a + 1e-10 * max(abs(a), 1.0)

    def test_mask_independence(self, rng):
        data, _ = random_instance(seed=8, K=2, M=4, P=5, p0=0.6)
        poisoned = data.values + np.where(data.mask, 0.0, 37.0)
        twin = ObservedDataset(poisoned, data.mask)
        cfg = SolverConfig(lam=0.7, penalty=H1_UNIT, max_outer_iters=60)
        c1, t1 = mm_cluster(data, cfg)
        c2, t2 = mm_cluster(twin, cfg)
        np.testing.assert_allclose(c1.U, c2.U, atol=1e-12)
        np.testing.assert_allclose(t1.objectives, t2.objectives, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        data, _ = random_instance(seed=14, K=2, M=4, P=3, p0=0.8)
        perm = rng.permutation(data.point_count)
        permuted = ObservedDataset(data.values[:, perm], data.mask[:, perm])
        cfg = SolverConfig(lam=0.5, penalty=H1_UNIT, max_outer_iters=60)
        c1, _ = mm_cluster(data, cfg)
        c2, _ = mm_cluster(permuted, cfg)
        np.testing.assert_allclose(c1.U[:, perm], c2.U, atol=1e-9)

    def test_lp_fusion_reaches_exact_coalescence(self):
        data, truth = random_instance(seed=6, K=2, M=5, P=3, scale=9.0, variance=0.02)
        cfg = SolverConfig(lam=0.2, penalty=PenaltySpec.lp(0.5), max_outer_iters=120,
                           objective_rel_tol=1e-12)
        centroids, _ = mm_cluster(data, cfg)
        d = pairwise_distances(centroids.U, accurate=True)
        same = truth.labels[:, None] == truth.labels[None, :]
        np.fill_diagonal(same, False)
        if d[same].size:
            assert d[same].max() == 0.0  # fused groups share one column


class TestExtractClusters:
    def test_all_identical_single_cluster(self):
        u = np.ones((2, 5))
        assert extract_clusters(u, 0.5).cluster_count == 1

    def test_two_far_pairs(self):
        u = np.array([[0.0, 0.0, 10.0, 10.0]])
        part = extract_clusters(u, 1.0)
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_chain_merges_transitively(self):
        u = np.array([[0.0, 0.9, 1.8]])
        assert extract_clusters(u, 1.0).cluster_count == 1

    def test_merge_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_clusters(np.zeros((1, 2)), 0.0)

    def test_default_merge_tol(self):
        u = np.array([[0.0, 2.0]])
        assert default_merge_tol(u) == pytest.approx(2e-3)
        assert default_merge_tol(np.zeros((2, 3))) == 1.0


class TestPairwiseDistances:
    def test_gram_and_accurate_agree(self, rng):
        u = rng.normal(size=(4, 7))
        np.testing.assert_allclose(
            pairwise_distances(u), pairwise_distances(u, accurate=True), atol=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([2, 3, 4, 7]),
        n_case=st.sampled_from(["1", "2", "B-1", "B", "B+1", "601"]),
        p=st.sampled_from([1, 3, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_kernel_is_bitwise_the_loop(self, rows, n_case, p, seed):
        n = {"1": 1, "2": 2, "B-1": rows - 1, "B": rows, "B+1": rows + 1}.get(
            n_case, 601
        )
        rng = np.random.default_rng(seed)
        scales = rng.choice([1.0, 1e150, 1e-150], size=(p, n))
        u = rng.normal(size=(p, n)) * scales
        dup = rng.integers(0, n, size=n // 3)
        u[:, rng.integers(0, n, size=dup.size)] = u[:, dup]  # exact zeros
        with mock.patch.object(
            model, "_EXACT_BLOCK_BYTES", exact_block_budget(p, n, rows)
        ):
            d = pairwise_distances(u, accurate=True)
            linf = model._pairwise_reduce(u, np.abs, np.maximum)
        assert np.array_equal(d, loop_distances(u))
        assert np.array_equal(linf, linf_loop(u))

    @pytest.mark.parametrize("p", [3, 50])
    def test_default_block_budget_is_bitwise_the_loop(self, p, rng):
        # 601 rows split into blocks with a ragged tail (B = 4 at P = 50).
        u = rng.normal(size=(p, 601))
        u[:, 300:310] = u[:, 0:10]
        assert np.array_equal(pairwise_distances(u, accurate=True), loop_distances(u))
        linf = model._pairwise_reduce(u, np.abs, np.maximum)
        assert np.array_equal(linf, linf_loop(u))


class TestTriangleKernel:
    """The exact kernel reduces each unordered pair once and mirrors it."""

    @pytest.mark.parametrize("rows", [2, 3, 7])
    def test_symmetric_with_zero_diagonal_and_a_one_row_tail(self, rows, rng):
        n = 5 * rows + 1
        u = rng.normal(size=(6, n))
        u[:, n - 1] = u[:, 0]  # the tail row coincides with the first block
        with mock.patch.object(model, "_EXACT_BLOCK_BYTES", exact_block_budget(6, n, rows)):
            d = pairwise_distances(u, accurate=True)
            linf = model._pairwise_reduce(u, np.abs, np.maximum)
        for got, want in ((d, loop_distances(u)), (linf, linf_loop(u))):
            assert np.array_equal(got, want)
            assert np.array_equal(got, got.T)
            assert not np.diagonal(got).any()

    @pytest.mark.parametrize(
        "layout", [lambda u: u[:, ::2], np.asfortranarray], ids=["strided", "fortran"]
    )
    def test_non_contiguous_input_matches_contiguous(self, layout, rng):
        u = layout(rng.normal(size=(5, 46)))
        n = u.shape[1]
        dense = np.ascontiguousarray(u)
        with mock.patch.object(model, "_EXACT_BLOCK_BYTES", exact_block_budget(5, n, 3)):
            d = pairwise_distances(u, accurate=True)
            linf = model._pairwise_reduce(u, np.abs, np.maximum)
            assert np.array_equal(d, pairwise_distances(dense, accurate=True))
            assert np.array_equal(linf, model._pairwise_reduce(dense, np.abs, np.maximum))
        assert np.array_equal(d, loop_distances(dense))
        assert np.array_equal(linf, linf_loop(dense))

    def test_estimate_geometry_matches_the_loop(self, monkeypatch):
        data, truth = random_instance(seed=8, K=2, M=30, P=50)
        monkeypatch.setattr(model, "_EXACT_BLOCK_BYTES", exact_block_budget(50, 60, 3))
        blocked = model.estimate_geometry(data, truth)
        monkeypatch.setattr(model, "_pairwise_reduce", lambda values, *_: linf_loop(values))
        looped = model.estimate_geometry(data, truth)
        assert np.array_equal(dataclasses.astuple(blocked), dataclasses.astuple(looped))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.0, penalty=H1_UNIT)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, penalty=H1_UNIT, max_outer_iters=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lam", math.nan), ("lam", math.inf),
            ("rho", math.nan), ("rho", math.inf), ("rho", -1e-8),
            ("cg_tol", math.nan), ("cg_tol", math.inf), ("cg_tol", -1e-10),
            ("objective_rel_tol", math.nan), ("objective_rel_tol", math.inf),
            ("objective_rel_tol", -1.0),
            ("cg_maxiter_factor", -1),
        ],
    )
    def test_rejects_non_finite_and_negative_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"lam": 1.0, "penalty": H1_UNIT, field: value})

    def test_zero_settings_stay_legal(self):
        SolverConfig(
            lam=1.0, penalty=H1_UNIT, rho=0.0, cg_tol=0.0,
            objective_rel_tol=0.0, cg_maxiter_factor=0,
        )


class TestComponents:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
        chain=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_union_find(self, n, density, chain, seed):
        rng = np.random.default_rng(seed)
        adj = rng.random((n, n)) < density
        if chain:  # link a random ordering of the points end to end
            order = rng.permutation(n)
            adj[order[:-1], order[1:]] = True
        adj |= adj.T
        np.fill_diagonal(adj, False)
        assert np.array_equal(solver._components(adj), union_find_labels(adj))


class TestBitIdentity:
    @pytest.mark.parametrize("rows", [None, 3])
    def test_lp_run_with_merges_matches_the_loop_kernel(self, rows, monkeypatch):
        # The whole lp solve, fused-group merges included, must not move one
        # bit when the blocked kernel stands in for the per-feature loop.
        data, _ = random_instance(seed=3, K=3, M=20, P=50, p0=0.6, scale=6.0)
        if rows is not None:
            monkeypatch.setattr(
                model, "_EXACT_BLOCK_BYTES", exact_block_budget(50, 60, rows)
            )
        cfg = SolverConfig(lam=0.2, penalty=PenaltySpec.lp(0.5))
        blocked, blocked_trace = mm_cluster(data, cfg)
        monkeypatch.setattr(solver, "_distances_for", lambda U, _: loop_distances(U))
        loop, loop_trace = mm_cluster(data, cfg)
        assert np.unique(blocked.U, axis=1).shape[1] < data.point_count  # merged
        assert np.array_equal(blocked.U, loop.U)
        assert np.array_equal(blocked_trace.objectives, loop_trace.objectives)
