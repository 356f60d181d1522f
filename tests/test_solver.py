import copy
import dataclasses
import inspect
import math
import pickle
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecluster import analysis, model, solver

from fusecluster.analysis import cluster_once
from fusecluster.datagen import MaskSpec, apply_mask, block_centers, generate
from fusecluster.model import ObservedDataset, Partition, SyntheticSpec
from fusecluster.penalty import PenaltySpec, phi, weight
from fusecluster.solver import (
    MajorizationError,
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


def pass_block_budget(n, rows):
    """Value of solver._PASS_BLOCK_BYTES that makes the row-blocked
    majorization pass fill ``rows`` rows per block on N points."""
    return 8 * n * rows


def majorize(u, penalty, fuse_tol=0.0):
    """Row-blocked majorization pass on ``u``: (fusion sum, weights, the
    ``(s, c)`` blocks that hold a close pair)."""
    w = np.empty((u.shape[1],) * 2)
    fusion, close = solver._majorize(u, penalty, w, fuse_tol=fuse_tol)
    return fusion, w, close


def upper_blocks(adj, rows):
    """``adj``'s upper triangle as ``(s, c)`` row blocks of ``rows`` rows
    (None: one block), the record that _components takes."""
    n = adj.shape[0]
    step = rows or n
    upper = np.triu(adj)
    return [(s, upper[s : s + step, s:]) for s in range(0, n, step)]


def h1_and_lp(values):
    """Cases of each value for h1 (id: the value) and for lp (id: lp-value)."""
    return [
        pytest.param(kind, v, id=f"{prefix}{v}")
        for kind, prefix in (("h1", ""), ("lp", "lp-"))
        for v in values
    ]


def random_instance(seed, K=2, M=4, P=5, p0=1.0, scale=4.0, variance=0.1):
    spec = SyntheticSpec(
        K=K, M=M, P=P, centers=block_centers(K, P, scale),
        variance=variance, seed=seed,
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
        for w, problem in ((math.inf, "finite"), (math.nan, "finite"), (-1.0, "negative")):
            with pytest.raises(ValueError, match=problem):
                update_centroids(data, np.array([[0.0, w], [w, 0.0]]), 1.0, 0.0)

    def test_stationarity_residual(self):
        data, _ = random_instance(seed=3, K=2, M=5, P=6, p0=0.7)
        w = update_weights(mean_imputed(data), H1_UNIT)
        lam, rho = 0.8, 1e-8
        u = update_centroids(data, w, lam, rho)
        for p, (a, b) in enumerate(dense_systems(data, w, lam, rho)):
            resid = np.linalg.norm(a @ u[p] - b)
            assert resid < 1e-8 * max(np.linalg.norm(b), 1e-12)

    def test_cg_nonconvergence_reports_residual(self, monkeypatch):
        data, _ = random_instance(seed=9, K=2, M=6, P=4, p0=0.6)
        w = update_weights(mean_imputed(data), H1_UNIT)
        from fusecluster.solver import ConvergenceError

        monkeypatch.setattr(solver, "_CG_MAXITER_FACTOR", 0)
        with pytest.raises(ConvergenceError) as err:
            update_centroids(data, w, 0.5, 1e-8)
        e = err.value
        assert e.residual_norm > 0
        assert e.iterations == 0
        assert "after 0 iterations" in str(e)
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
            assert (type(twin), twin.residual_norm, twin.iterations, str(twin)) == (
                ConvergenceError, e.residual_norm, e.iterations, str(e)
            )
        monkeypatch.setattr(solver, "_CG_MAXITER_FACTOR", 1)
        with pytest.raises(ConvergenceError) as err:
            update_centroids(data, w, 1e8, 1e-8)  # stiff: needs more than N steps
        assert err.value.iterations == data.point_count

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

    def test_isolated_point_with_a_missing_entry_and_no_ridge(self):
        # Point 7 sits 100 sigma from the rest, so every weight it has
        # underflows to 0; with rho = 0 its unobserved coordinate has a zero
        # row in the system, which must not turn the CG step into 0/0.
        y = np.random.default_rng(0).normal(size=(3, 8))
        y[0, 7] = 100.0
        mask = np.ones_like(y, dtype=bool)
        mask[1, 7] = False
        data = ObservedDataset(y, mask)
        cfg = SolverConfig(lam=1.0, penalty=H1_UNIT, rho=0.0)
        centroids, _ = mm_cluster(data, cfg)
        u = centroids.U
        assert np.all(np.isfinite(u))
        assert u[1, 7] == mean_imputed(data)[1, 7]
        assert np.array_equal(u[[0, 2], 7], y[[0, 2], 7])

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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                default_merge_tol(np.array([[0.0, bad, 1.0]]))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_row_blocks_match_the_whole_matrix(self, rows, rng, monkeypatch):
        n = 23
        u = 100.0 * rng.normal(size=(3, n))
        cluster, chain = [0, 8, 15, 22], [5, 20, 3, 17, 10]
        u[:, cluster] = u[:, :1] + 0.01 * rng.normal(size=(3, len(cluster)))
        for step, i in enumerate(chain):  # links 0.5 apart, ends 2.0 apart
            u[:, i] = u[:, 5] + [0.5 * step, 0.0, 0.0]
        tol = 0.6
        d = pairwise_distances(u)
        monkeypatch.setattr(solver, "_PASS_BLOCK_BYTES", pass_block_budget(n, rows))
        labels = extract_clusters(u, tol).labels
        adj = d <= tol
        np.fill_diagonal(adj, False)
        assert np.array_equal(labels, union_find_labels(adj))
        assert default_merge_tol(u) == pytest.approx(1e-3 * d.max(), rel=1e-12, abs=0)
        # Both groups span several blocks and are the only ones.
        assert all(len({i // rows for i in g}) > 1 for g in (cluster, chain))
        assert len(set(labels[cluster])) == len(set(labels[chain])) == 1
        assert labels.max() + 1 == n - (len(cluster) - 1) - (len(chain) - 1)

    @pytest.mark.parametrize(
        "kind, kwargs",
        [("h1", {"sigma": 2.0, "lam": 4.0}), ("lp", {"lam": 0.05})],
        ids=["h1", "lp"],
    )
    def test_cluster_once_holds_one_n_by_n_array(self, kind, kwargs):
        # Extraction walks the pass's row blocks, and a merge releases the
        # point-level weights before it allocates the quotient's, so the
        # solve's one weight buffer is the only N x N float array.
        n = 1200
        data, _ = random_instance(seed=5, K=3, M=n // 3, P=5, p0=0.6, scale=6.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run = cluster_once(data, penalty_kind=kind, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if kind == "lp":
            assert np.unique(run.centroids, axis=1).shape[1] < n  # it merged
        assert peak < 1.6 * 8 * n * n


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


    @pytest.mark.parametrize("rows", [(0, 23), (0, 5), (5, 12), (20, 23), (22, 23)])
    def test_row_block_is_the_upper_slice(self, rows, rng):
        u = rng.normal(size=(6, 23))
        u[:, 21] = u[:, 6]
        s, e = rows
        block = pairwise_distances(u, rows=rows)
        full = pairwise_distances(u)
        assert block.shape == (e - s, 23 - s)
        np.testing.assert_allclose(block, full[s:e, s:], rtol=0, atol=1e-12)
        square = block[:, : e - s]
        assert np.array_equal(square, square.T)
        assert not np.diagonal(square).any()
        if rows == (0, 23):
            assert np.array_equal(block, full)
        exact = pairwise_distances(u, accurate=True, rows=rows)
        assert np.array_equal(exact, loop_distances(u)[s:e, s:])


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


class TestH1Pass:
    """The majorization pass of both penalties: one row-blocked sweep gives
    the fusion sum, the weights, exactly symmetric, and the close pairs.  h1
    is close to phi and weight on the Gram distances; lp is bitwise them on
    the exact distances."""

    PENALTIES = {"h1": PenaltySpec.h1(1.5), "lp": PenaltySpec.lp(0.5)}

    def check_against_reference(self, u, penalty, fusion, w):
        assert np.array_equal(w, w.T)
        assert not np.diagonal(w).any()
        d = pairwise_distances(u, accurate=penalty.kind == "lp")
        want_w = weight(d, penalty)
        np.fill_diagonal(want_w, 0.0)
        pen = phi(d, penalty)
        np.fill_diagonal(pen, 0.0)
        assert fusion == pytest.approx(pen.sum(), rel=1e-13)
        if penalty.kind == "lp":
            assert np.array_equal(w, want_w)
        else:
            assert np.abs(w - want_w).max() <= 1e-13 / (2.0 * penalty.sigma**2)

    @pytest.mark.parametrize("kind, rows", h1_and_lp([1, 2, 3, 7, None]))
    def test_blocks_with_a_ragged_tail_match_phi_and_weight(self, kind, rows, rng):
        n = 23  # prime: every rows > 1 leaves a ragged tail
        u = rng.normal(size=(6, n))
        u[:, n - 1] = u[:, 0]  # the tail coincides with the first block
        u[:, 5] = u[:, 4]
        penalty = self.PENALTIES[kind]
        exact = pairwise_distances(u, accurate=True)
        if kind == "lp":
            fuse_tol = float(np.median(exact))
        else:  # the run's threshold: 0, as h1 never fuses
            fuse_tol = solver._fuse_threshold(penalty, u)
        blocks = []

        def recorded(U, accurate, rows):
            blocks.append((rows, pairwise_distances(U, accurate, rows)))
            return blocks[-1][1]

        budget = solver._PASS_BLOCK_BYTES if rows is None else pass_block_budget(n, rows)
        assert rows is not None or budget >= 8 * n * n  # one block covers all
        with mock.patch.object(solver, "_PASS_BLOCK_BYTES", budget), mock.patch.object(
            solver, "pairwise_distances", recorded
        ):
            fusion, w, close = majorize(u, penalty, fuse_tol)
        self.check_against_reference(u, penalty, fusion, w)
        assert [r for r, _ in blocks] == [
            (s, min(s + (rows or n), n)) for s in range(0, n, rows or n)
        ]
        if kind == "h1":
            assert close == []  # no pair is closer than 0
        else:
            for (s, e), d in blocks:
                assert np.array_equal(d, exact[s:e, s:])
            got = np.zeros((n, n), dtype=bool)
            for s, c in close:
                assert c.any()  # only blocks that hold a pair are kept
                got[s : s + len(c), s:] = c
            want = exact < fuse_tol
            assert np.array_equal(np.triu(got, 1), np.triu(want, 1))
            assert not got.diagonal().any()

    def test_one_block_is_the_whole_matrix_chain(self, rng):
        u = rng.normal(size=(6, 23))
        for penalty in self.PENALTIES.values():
            fusion, w, _ = majorize(u, penalty)
            d = pairwise_distances(u, accurate=penalty.kind == "lp")
            pen = phi(d, penalty)
            want_w = weight(d, penalty)
            np.fill_diagonal(want_w, 0.0)
            assert fusion == pen.sum()
            assert np.array_equal(w, want_w)

    @pytest.mark.parametrize("kind, rows", h1_and_lp([3, None]))
    @pytest.mark.parametrize(
        "layout", [lambda u: u[:, ::2], np.asfortranarray], ids=["strided", "fortran"]
    )
    def test_non_contiguous_input_matches_contiguous(self, layout, kind, rows, rng):
        u = layout(rng.normal(size=(5, 46)))
        n = u.shape[1]
        penalty = self.PENALTIES[kind]
        budget = solver._PASS_BLOCK_BYTES if rows is None else pass_block_budget(n, rows)
        with mock.patch.object(solver, "_PASS_BLOCK_BYTES", budget):
            fusion, w, _ = majorize(u, penalty)
            dense_fusion, dense_w, _ = majorize(np.ascontiguousarray(u), penalty)
        assert fusion == dense_fusion
        assert np.array_equal(w, dense_w)
        self.check_against_reference(u, penalty, fusion, w)

    def test_multi_block_solve_matches_single_block(self, monkeypatch):
        data, truth = random_instance(seed=3, K=3, M=20, P=50, p0=0.6, scale=6.0)
        cfg = SolverConfig(lam=16.0, penalty=PenaltySpec.h1(2.0))
        single, single_trace = mm_cluster(data, cfg)
        monkeypatch.setattr(solver, "_PASS_BLOCK_BYTES", pass_block_budget(60, 7))
        blocked, blocked_trace = mm_cluster(data, cfg)
        parts = [
            extract_clusters(c.U, default_merge_tol(c.U)) for c in (single, blocked)
        ]
        assert parts[0].same_clustering(truth)
        assert np.array_equal(parts[0].labels, parts[1].labels)
        assert blocked_trace.iterations == single_trace.iterations
        np.testing.assert_allclose(
            blocked_trace.objectives, single_trace.objectives, rtol=1e-9, atol=0
        )

    @pytest.mark.parametrize("rows", [7, None])
    def test_trace_is_the_objective_at_the_result(self, rows, monkeypatch):
        data, _ = random_instance(seed=4, K=3, M=20, P=50, p0=0.6, scale=6.0)
        if rows is not None:
            monkeypatch.setattr(solver, "_PASS_BLOCK_BYTES", pass_block_budget(60, rows))
        penalty = PenaltySpec.h1(2.0)
        centroids, trace = mm_cluster(data, SolverConfig(lam=16.0, penalty=penalty))
        assert trace.objectives[-1] == objective(data, centroids.U, 16.0, penalty)

    def test_solve_holds_one_n_by_n_array(self):
        # The fused pass writes into the solve's one weight buffer; distances,
        # penalties and a second weight matrix are never held beside it.
        n = 600
        data, _ = random_instance(seed=5, K=3, M=n // 3, P=50, p0=0.6, scale=6.0)
        cfg = SolverConfig(lam=4.0, penalty=PenaltySpec.h1(2.0))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mm_cluster(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n


class TestMajorizationError:
    def test_carries_the_rise(self):
        # At this scale the CG error, relative to ||b|| ~ 1e20, costs far
        # more in the data term than the fusion term can save.
        y = np.random.default_rng(0).normal(size=(5, 20))
        y[:, 0:5] += 4.0
        y[:, 5:10] -= 4.0
        with pytest.raises(MajorizationError) as err:
            cluster_once(ObservedDataset.full(y * 1e20), lam=1.0, sigma=1e20)
        e = err.value
        assert e.iteration == 1
        assert e.previous == pytest.approx(369.7118497, rel=1e-9)
        assert 1e26 < e.current < 1e27
        assert str(e) == (
            f"majorization violated: objective rose {e.previous:.12g} -> {e.current:.12g}"
        )
        copy = pickle.loads(pickle.dumps(e))
        assert (copy.iteration, copy.previous, copy.current, str(copy)) == (
            e.iteration, e.previous, e.current, str(e)
        )


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
            ("objective_rel_tol", math.nan), ("objective_rel_tol", math.inf),
            ("objective_rel_tol", -1.0),
        ],
    )
    def test_rejects_non_finite_and_negative_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"lam": 1.0, "penalty": H1_UNIT, field: value})

    def test_zero_settings_stay_legal(self):
        SolverConfig(lam=1.0, penalty=H1_UNIT, rho=0.0, objective_rel_tol=0.0)

    def test_every_setting_is_reachable_from_cluster_once(self):
        # A setting that only tests can set belongs in a module constant.
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == ["lam", "penalty", "max_outer_iters", "objective_rel_tol", "rho"]
        params = inspect.signature(analysis.cluster_once).parameters
        assert [f for f in fields if f != "penalty" and f not in params] == []


class TestComponents:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
        chain=st.booleans(),
        rows=st.sampled_from([1, 2, 3, 7, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_union_find(self, n, density, chain, rows, seed):
        rng = np.random.default_rng(seed)
        adj = rng.random((n, n)) < density
        if chain:  # link a random ordering of the points end to end
            order = rng.permutation(n)
            adj[order[:-1], order[1:]] = True
        adj |= adj.T
        np.fill_diagonal(adj, False)
        labels = solver._components(n, upper_blocks(adj, rows))
        assert np.array_equal(labels, union_find_labels(adj))

    def test_long_chain_in_random_order_within_budget(self, rng):
        # Plain min-label propagation can need one round per link of a
        # chain; hooking roots needs a few rounds however it is numbered.
        n = 1500
        order = rng.permutation(n)
        adj = np.zeros((n, n), dtype=bool)
        adj[order[:-1], order[1:]] = True
        adj |= adj.T
        close = upper_blocks(adj, solver._PASS_BLOCK_BYTES // (8 * n))
        start = time.perf_counter()
        labels = solver._components(n, close)
        elapsed = time.perf_counter() - start
        assert labels.max() == 0
        assert np.array_equal(labels, union_find_labels(adj))
        assert elapsed < 1.0


class TestBitIdentity:
    @pytest.mark.parametrize(
        "rows, pass_rows",
        [
            pytest.param(None, None, id="None"),
            pytest.param(3, None, id="3"),
            pytest.param(None, 7, id="pass7"),
            pytest.param(3, 7, id="3-pass7"),
        ],
    )
    def test_lp_run_with_merges_matches_the_loop_kernel(self, rows, pass_rows, monkeypatch):
        # The whole lp solve, fused-group merges included, must not move one
        # bit when the blocked kernel stands in for the per-feature loop.
        data, _ = random_instance(seed=3, K=3, M=20, P=50, p0=0.6, scale=6.0)
        cfg = SolverConfig(lam=0.2, penalty=PenaltySpec.lp(0.5))
        whole, _ = mm_cluster(data, cfg)  # default budgets: one pass block
        if rows is not None:
            monkeypatch.setattr(
                model, "_EXACT_BLOCK_BYTES", exact_block_budget(50, 60, rows)
            )
        if pass_rows is not None:
            monkeypatch.setattr(
                solver, "_PASS_BLOCK_BYTES", pass_block_budget(60, pass_rows)
            )
        blocked, blocked_trace = mm_cluster(data, cfg)
        # Weights and merges are bitwise blind to the blocking; only the
        # fusion sum's rounding may see it.
        assert np.array_equal(blocked.U, whole.U)
        monkeypatch.setattr(
            solver,
            "pairwise_distances",
            lambda U, accurate, rows: loop_distances(U)[rows[0] : rows[1], rows[0] :],
        )
        loop, loop_trace = mm_cluster(data, cfg)
        groups = np.unique(blocked.U, axis=1, return_inverse=True)[1]
        assert groups.max() + 1 < data.point_count  # merged
        if pass_rows is not None:  # some fused group spans two pass blocks
            block_of = np.arange(data.point_count) // pass_rows
            assert any(len(set(block_of[groups == g])) > 1 for g in range(groups.max() + 1))
        assert np.array_equal(blocked.U, loop.U)
        assert np.array_equal(blocked_trace.objectives, loop_trace.objectives)
