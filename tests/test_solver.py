import copy
import dataclasses
import functools
import importlib.util
import itertools
import math
import pickle
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusecluster import model, solver

from fusecluster.analysis import _derive_seed, cluster_once
from fusecluster.cli import SIMULATE_PRESETS
from fusecluster.datagen import MaskSpec, apply_mask, block_centers, generate
from fusecluster.model import ObservedDataset, Partition, SyntheticSpec
from fusecluster.penalty import H1, PenaltySpec, phi, weight
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


def exact_distances(u, rows=None):
    """The exact kernel's distances: rows ``[s, e)`` against columns
    ``[s, N)`` for ``rows=(s, e)``, all pairs by default."""
    s, e = rows or (0, u.shape[1])
    return np.sqrt(model._pairwise_reduce(u[:, s:], np.square, np.add, e - s))


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


def pass_block_budget(n, rows, kind="h1"):
    """Value of solver._PASS_BLOCK_BYTES that makes the row-blocked
    majorization pass fill ``rows`` rows per block on N points; the power
    penalty's pass (kind "lp") takes blocks of half the budget."""
    return 8 * n * rows * (2 if kind == "lp" else 1)


def majorize(u, penalty, fuse_tol=None):
    """The penalty's row-blocked majorization pass on ``u``, h1's over the
    one span of all columns and lp's at ``fuse_tol`` (default: u's own run
    threshold): (fusion sum, weights, the ``(s, c)`` blocks that hold a
    close pair; the h1 pass has none)."""
    w = np.empty((u.shape[1],) * 2)
    if penalty.kind == H1:
        return solver._h1_pass(solver._centred(u), penalty, w, [(0, len(w))]), w, []
    if fuse_tol is None:
        fuse_tol = solver._fuse_threshold(penalty, u)
    fusion, close = solver._lp_pass(u, penalty, w, fuse_tol)
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


def dense_systems(data, w, lam):
    """Per-feature (A, b) of the centroid update, assembled as dense matrices."""
    mask_f = data.mask.astype(float)
    laplacian = np.diag(w.sum(axis=1)) - w
    for p in range(data.feature_count):
        yield np.diag(mask_f[p]) + 2 * lam * laplacian, mask_f[p] * data.observed_values()[p]


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
        u = update_centroids(data, np.zeros((2, 2)), lam=0.5)
        assert np.array_equal(u, data.values)

    def test_identical_points_stay_exact(self):
        col = np.array([[1 / 3], [0.1234567]])
        data = ObservedDataset.full(np.hstack([col, col]))
        u = update_centroids(data, np.array([[0.0, 0.9], [0.9, 0.0]]), lam=2.0)
        assert np.array_equal(u, data.values)

    def test_two_point_hand_solve(self):
        lam, w = 0.7, 0.3
        data = ObservedDataset.full(np.array([[0.0, 1.0]]))
        u = update_centroids(data, np.array([[0.0, w], [w, 0.0]]), lam)
        expected = np.array(
            [2 * lam * w / (1 + 4 * lam * w), (1 + 2 * lam * w) / (1 + 4 * lam * w)]
        )
        np.testing.assert_allclose(u.ravel(), expected, rtol=1e-12)

    def test_rejects_asymmetric_weights(self):
        data = ObservedDataset.full(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            update_centroids(data, np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
        for w, problem in ((math.inf, "finite"), (math.nan, "finite"), (-1.0, "negative")):
            with pytest.raises(ValueError, match=problem):
                update_centroids(data, np.array([[0.0, w], [w, 0.0]]), 1.0)

    def test_stationarity_residual(self):
        data, _ = random_instance(seed=3, K=2, M=5, P=6, p0=0.7)
        w = update_weights(mean_imputed(data), H1_UNIT)
        lam = 0.8
        u = update_centroids(data, w, lam)
        for p, (a, b) in enumerate(dense_systems(data, w, lam)):
            resid = np.linalg.norm(a @ u[p] - b)
            assert resid < 1e-8 * max(np.linalg.norm(b), 1e-12)

    def test_cg_nonconvergence_reports_residual(self, monkeypatch):
        data, _ = random_instance(seed=9, K=2, M=6, P=4, p0=0.6)
        w = update_weights(mean_imputed(data), H1_UNIT)
        from fusecluster.solver import ConvergenceError

        monkeypatch.setattr(solver, "_CG_MAXITER_FACTOR", 0)
        with pytest.raises(ConvergenceError) as err:
            update_centroids(data, w, 0.5)
        e = err.value
        assert e.residual_norm > 0
        assert e.iterations == 0
        assert "after 0 iterations" in str(e)
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
            assert (type(twin), twin.residual_norm, twin.iterations, str(twin)) == (
                ConvergenceError, e.residual_norm, e.iterations, str(e)
            )
        assert (e.lam, e.kind, e.groups, e.outer_iteration) == (None,) * 4
        # From mm_cluster, the error also names the run.
        with pytest.raises(ConvergenceError) as err:
            mm_cluster(data, SolverConfig(0.5, H1_UNIT))
        e = err.value
        run = (0.5, H1, data.point_count, 1)
        assert (e.lam, e.kind, e.groups, e.outer_iteration) == run
        assert str(e).endswith(f"[outer iteration 1, lambda 0.5, penalty h1, G {run[2]}]")
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
            assert (twin.lam, twin.kind, twin.groups, twin.outer_iteration) == run
            assert (twin.residual_norm, twin.iterations, str(twin)) == (
                e.residual_norm, e.iterations, str(e)
            )
        monkeypatch.setattr(solver, "_CG_MAXITER_FACTOR", 1)
        with pytest.raises(ConvergenceError) as err:
            update_centroids(data, w, 1e8)  # stiff: needs more than N steps
        assert err.value.iterations == data.point_count

    def test_matches_dense_solve(self):
        data, _ = random_instance(seed=9, K=2, M=6, P=4, p0=0.6)
        w = update_weights(mean_imputed(data), H1_UNIT)
        lam = 0.5
        u = update_centroids(data, w, lam)
        dense = np.array([np.linalg.solve(a, b) for a, b in dense_systems(data, w, lam)])
        np.testing.assert_allclose(u, dense, atol=1e-8)


class TestSolveCG:
    """solver._solve_cg on its own, on per-feature systems
    (diag(diag_p) + 2 lam L_w) d_p = r_p."""

    @staticmethod
    def system(seed, n=12, P=4, lam=0.7):
        """Random weights and masks; the last coordinate is observed by no
        point and pulled by no weight, so its row is zero and so is r there."""
        rng = np.random.default_rng(seed)
        w = rng.random((n, n))
        w = w + w.T
        w[-1, :] = w[:, -1] = 0.0
        np.fill_diagonal(w, 0.0)
        diag = (rng.random((P, n)) < 0.5).astype(float)
        diag[:, 0] = 1.0  # every feature observes a point
        diag[:, -1] = 0.0
        r = rng.normal(size=(P, n))
        r[:, -1] = 0.0
        return diag, w, w.sum(axis=1), lam, r

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_solve(self, seed):
        diag, w, deg, lam, r = self.system(seed)
        tol = 1e-10 * np.linalg.norm(r, axis=1)
        d, steps = solver._solve_cg(diag, w, deg, lam, r, tol)
        assert 0 < steps <= solver._CG_MAXITER_FACTOR * len(deg)
        assert np.all(d[:, -1] == 0.0)
        for p in range(len(r)):
            a = (np.diag(diag[p]) + 2 * lam * (np.diag(deg) - w))[:-1, :-1]
            dense = np.linalg.solve(a, r[p, :-1])
            # d is within the residual target of the system, so within that
            # target over A's smallest eigenvalue of the dense solve.
            gap = np.linalg.norm(a @ d[p, :-1] - r[p, :-1])
            assert gap <= 1.01 * tol[p]
            bound = 1.01 * tol[p] / np.linalg.eigvalsh(a)[0]
            assert np.linalg.norm(d[p, :-1] - dense) <= bound

    def test_a_residual_within_tolerance_takes_no_step(self):
        diag, w, deg, lam, r = self.system(0)
        tol = 2.0 * np.linalg.norm(r, axis=1)
        d, steps = solver._solve_cg(diag, w, deg, lam, r, tol)
        assert steps == 0
        assert np.array_equal(d, np.zeros_like(r))

    def test_holds_no_n_by_n_array(self):
        n, P = 400, 5
        rng = np.random.default_rng(5)
        w = rng.random((n, n))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        diag = np.ones((P, n))
        r = rng.normal(size=(P, n))
        tol = 1e-10 * np.linalg.norm(r, axis=1)
        tracemalloc.start()
        try:
            _, steps = solver._solve_cg(diag, w, w.sum(axis=1), 0.5, r, tol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps > 1
        assert peak < 8 * n * n / 2


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

    def test_isolated_point_with_a_missing_entry_and_no_pull(self):
        # Point 7 sits 100 sigma from the rest, so every weight it has
        # underflows to 0 and its unobserved coordinate has a zero row in
        # the system, which must keep its mean-imputed value and must not
        # turn the CG step into 0/0 (any floating-point warning fails).
        y = np.random.default_rng(0).normal(size=(3, 8))
        y[0, 7] = 100.0
        mask = np.ones_like(y, dtype=bool)
        mask[1, 7] = False
        data = ObservedDataset(y, mask)
        cfg = SolverConfig(lam=1.0, penalty=H1_UNIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centroids, _ = mm_cluster(data, cfg)
        u = centroids.U
        assert np.all(np.isfinite(u))
        assert u[1, 7] == mean_imputed(data)[1, 7]
        assert np.array_equal(u[[0, 2], 7], y[[0, 2], 7])

    def test_converged_solve_is_a_stationary_point_of_the_objective(self):
        data, _ = random_instance(seed=3, K=3, M=20, P=50, p0=0.6, scale=6.0)
        penalty = PenaltySpec.h1(2.0)
        cfg = SolverConfig(
            lam=16.0, penalty=penalty, max_outer_iters=400, objective_rel_tol=0.0
        )
        centroids, trace = mm_cluster(data, cfg)
        assert trace.converged
        grad = objective_gradient(data, centroids.U, 16.0, penalty)
        assert np.abs(grad).max() <= 1e-8

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
        d = loop_distances(centroids.U)
        same = truth.labels[:, None] == truth.labels[None, :]
        np.fill_diagonal(same, False)
        if d[same].size:
            assert d[same].max() == 0.0  # fused groups share one column


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda u: objective(ObservedDataset.full(np.zeros(u.shape)), u, 1.0, H1_UNIT),
        lambda u: objective_gradient(ObservedDataset.full(np.zeros(u.shape)), u, 1.0, H1_UNIT),
        lambda u: update_weights(u, H1_UNIT),
        default_merge_tol,
        lambda u: extract_clusters(u, 1.0),
    ],
    ids=["objective", "objective_gradient", "update_weights", "default_merge_tol", "extract_clusters"],
)
def test_verification_api_rejects_non_finite_u(call, bad):
    with pytest.raises(ValueError, match="U must be finite"):
        call(np.array([[0.0, bad, 1.0]]))


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

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_merge_tol_takes_the_shared_rule(self, tol):
        with pytest.raises(ValueError, match=f"merge_tol must be finite and positive, got {tol!r}"):
            extract_clusters(np.zeros((1, 2)), tol)

    def test_default_merge_tol(self):
        u = np.array([[0.0, 2.0]])
        assert default_merge_tol(u) == pytest.approx(2e-3)
        assert default_merge_tol(np.zeros((2, 3))) == 1.0

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_row_blocks_match_the_whole_matrix(self, rows, rng, monkeypatch):
        n = 23
        u = 100.0 * rng.normal(size=(3, n))
        cluster, chain = [0, 8, 15, 22], [5, 20, 3, 17, 10]
        u[:, cluster] = u[:, :1] + 0.01 * rng.normal(size=(3, len(cluster)))
        for step, i in enumerate(chain):  # links 0.5 apart, ends 2.0 apart
            u[:, i] = u[:, 5] + [0.5 * step, 0.0, 0.0]
        tol = 0.6
        d = pairwise_distances(u, (0, n))
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
        "lam, penalty",
        [(4.0, PenaltySpec.h1(2.0)), (0.05, PenaltySpec.lp(0.5))],
        ids=["h1", "lp"],
    )
    def test_cluster_once_holds_one_n_by_n_array(self, lam, penalty):
        # Extraction walks the pass's row blocks, and a merge releases the
        # point-level weights before it allocates the quotient's, so the
        # solve's one weight buffer is the only N x N float array.
        n = 1200
        data, _ = random_instance(seed=5, K=3, M=n // 3, P=5, p0=0.6, scale=6.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run = cluster_once(data, lam, penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if penalty.kind == "lp":
            assert np.unique(run.centroids, axis=1).shape[1] < n  # it merged
        assert peak < 1.6 * 8 * n * n


class TestPairwiseDistances:
    def test_gram_and_accurate_agree(self, rng):
        u = rng.normal(size=(4, 7))
        np.testing.assert_allclose(pairwise_distances(u, (0, 7)), loop_distances(u), atol=1e-9)

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
            d = exact_distances(u)
            linf = model._pairwise_reduce(u, np.abs, np.maximum)
        assert np.array_equal(d, loop_distances(u))
        assert np.array_equal(linf, linf_loop(u))

    @pytest.mark.parametrize("p", [3, 50])
    def test_default_block_budget_is_bitwise_the_loop(self, p, rng):
        # 601 rows split into blocks with a ragged tail (B = 4 at P = 50).
        u = rng.normal(size=(p, 601))
        u[:, 300:310] = u[:, 0:10]
        assert np.array_equal(exact_distances(u), loop_distances(u))
        linf = model._pairwise_reduce(u, np.abs, np.maximum)
        assert np.array_equal(linf, linf_loop(u))


    @pytest.mark.parametrize("rows", [(0, 23), (0, 5), (5, 12), (20, 23), (22, 23)])
    def test_row_block_is_the_upper_slice(self, rows, rng):
        u = rng.normal(size=(6, 23))
        u[:, 21] = u[:, 6]
        s, e = rows
        block = pairwise_distances(u, rows=rows)
        full = pairwise_distances(u, (0, 23))
        assert block.shape == (e - s, 23 - s)
        np.testing.assert_allclose(block, full[s:e, s:], rtol=0, atol=1e-12)
        square = block[:, : e - s]
        assert np.array_equal(square, square.T)
        assert not np.diagonal(square).any()
        if rows == (0, 23):
            assert np.array_equal(block, full)
        exact = exact_distances(u, rows)
        assert np.array_equal(exact, loop_distances(u)[s:e, s:])


class TestLpDistances:
    """The power penalty's pass distances, ``solver._lp_row_blocks``: within
    1e-12 relative of the per-feature loop, and exactly 0 where it is 0."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 3),
        m=st.integers(1, 14),
        p=st.sampled_from([1, 3, 50]),
        log_spread=st.floats(-12, 0),
        log_scale=st.floats(-160, 150),
        rows=st.sampled_from([2, 3, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=2, m=6, p=3, log_spread=-3.0, log_scale=-160.0, rows=7, seed=0)
    def test_within_1e_12_of_the_loop(self, k, m, p, log_spread, log_scale, rows, seed):
        # k tight clusters, each spread 10^log_spread of its offset, with
        # exact duplicate columns, all scaled by 10^log_scale (below 1e-153
        # squares underflow); the pass blocks of `rows` rows leave a ragged
        # tail.
        n = k * m
        assume(n % rows)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(p, k))[:, rng.integers(0, k, size=n)]
        u += 10.0**log_spread * np.abs(u).max() * rng.normal(size=(p, n))
        dup = rng.integers(0, n, size=n // 3)
        u[:, rng.integers(0, n, size=dup.size)] = u[:, dup]
        u *= 10.0**log_scale
        want = loop_distances(u)
        got = np.full((n, n), np.nan)
        with mock.patch.object(solver, "_PASS_BLOCK_BYTES", pass_block_budget(n, rows, "lp")):
            for s, d in solver._lp_row_blocks(u, np.empty((n, n))):
                square = d[:, : len(d)]
                assert np.array_equal(square, square.T)
                assert not np.diagonal(square).any()
                assert np.isnan(got[s : s + len(d), s:]).all()  # each row once
                got[s : s + len(d), s:] = d
        upper = np.triu_indices(n)
        got, want = got[upper], want[upper]
        assert np.array_equal(got[want == 0], want[want == 0])
        rel = np.abs(got - want)[want > 0] / want[want > 0]
        assert rel.max(initial=0.0) <= 1e-12

    def test_mostly_failing_blocks_take_the_exact_kernel(self, rng):
        # At P = 3000 the Gram check's kappa exceeds 1, so every pair of one
        # blob fails it twice; those blocks come whole from the row-blocked
        # exact kernel, bitwise the loop, and nothing is gathered pair by pair.
        u = 5.0 + rng.normal(size=(3000, 10))
        got = np.full((10, 10), np.nan)
        with mock.patch.object(solver, "_exact_sq_dists", side_effect=AssertionError):
            for s, d in solver._lp_row_blocks(u, np.empty((10, 10))):
                got[s : s + len(d), s:] = d
        upper = np.triu_indices(10)
        assert np.array_equal(got[upper], loop_distances(u)[upper])


class TestTriangleKernel:
    """The exact kernel reduces each unordered pair once and mirrors it."""

    @pytest.mark.parametrize("rows", [2, 3, 7])
    def test_symmetric_with_zero_diagonal_and_a_one_row_tail(self, rows, rng):
        n = 5 * rows + 1
        u = rng.normal(size=(6, n))
        u[:, n - 1] = u[:, 0]  # the tail row coincides with the first block
        with mock.patch.object(model, "_EXACT_BLOCK_BYTES", exact_block_budget(6, n, rows)):
            d = exact_distances(u)
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
            d = exact_distances(u)
            linf = model._pairwise_reduce(u, np.abs, np.maximum)
            assert np.array_equal(d, exact_distances(dense))
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
    is close to phi and weight on the Gram distances; lp is them on the
    per-feature loop's distances within the pass's 1e-12 relative accuracy,
    and exactly where the loop puts a pair at 0."""

    PENALTIES = {"h1": PenaltySpec.h1(1.5), "lp": PenaltySpec.lp(0.5)}

    def check_against_reference(self, u, penalty, fusion, w, fuse_tol):
        assert np.array_equal(w, w.T)
        assert not np.diagonal(w).any()
        d = loop_distances(u) if penalty.kind == "lp" else pairwise_distances(u, (0, u.shape[1]))
        # the power weight's one floor is the pass's fuse threshold
        want_w = weight(np.maximum(d, fuse_tol), penalty)
        np.fill_diagonal(want_w, 0.0)
        pen = phi(d, penalty)
        np.fill_diagonal(pen, 0.0)
        if penalty.kind == "lp":
            assert fusion == pytest.approx(pen.sum(), rel=1e-12)
            # w ~ d^(p - 2): 1.5 times the distances' relative error
            np.testing.assert_allclose(w, want_w, rtol=2e-12, atol=0)
            assert np.array_equal(w[d == 0], want_w[d == 0])
        else:
            assert fusion == pytest.approx(pen.sum(), rel=1e-13)
            assert np.abs(w - want_w).max() <= 1e-13 / (2.0 * penalty.sigma**2)

    @pytest.mark.parametrize("kind, rows", h1_and_lp([1, 2, 3, 7, None]))
    def test_blocks_with_a_ragged_tail_match_phi_and_weight(self, kind, rows, rng):
        n = 23  # prime: every rows > 1 leaves a ragged tail
        u = rng.normal(size=(6, n))
        u[:, n - 1] = u[:, 0]  # the tail coincides with the first block
        u[:, 5] = u[:, 4]
        penalty = self.PENALTIES[kind]
        exact = loop_distances(u)
        if kind == "lp":  # between two pair distances: rounding moves no pair across
            fuse_tol = float(np.median(exact)) * (1.0 + 1e-9)
        else:  # the run's threshold: 0, as h1 never fuses
            fuse_tol = solver._fuse_threshold(penalty, u)
        blocks = []

        def recorded(U, rows):
            blocks.append(rows)
            return pairwise_distances(U, rows)

        budget = solver._PASS_BLOCK_BYTES if rows is None else pass_block_budget(n, rows, kind)
        assert rows is not None or budget >= 16 * n * n  # one block covers all
        with mock.patch.object(solver, "_PASS_BLOCK_BYTES", budget), mock.patch.object(
            solver, "pairwise_distances", recorded
        ):
            fusion, w, close = majorize(u, penalty, fuse_tol)
        self.check_against_reference(u, penalty, fusion, w, fuse_tol)
        tiling = [(s, min(s + (rows or n), n)) for s in range(0, n, rows or n)]
        assert blocks[: len(tiling)] == tiling
        if kind == "h1":
            assert blocks == tiling
            assert close == []  # no pair is closer than 0
        else:
            # Only the coincident pairs fail the Gram check, so sweep 2
            # takes the blocks of rows 0 and 4 again.
            assert blocks[len(tiling) :] == [(s, e) for s, e in tiling if s <= 0 < e or s <= 4 < e]
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
            fuse_tol = solver._fuse_threshold(penalty, u)
            if penalty.kind == "lp":
                self.check_against_reference(u, penalty, fusion, w, fuse_tol)
                continue
            # the h1 pass takes its Gram distances from centred columns
            d = pairwise_distances(u - u.mean(axis=1, keepdims=True), (0, 23))
            pen = phi(d, penalty)
            want_w = weight(np.maximum(d, fuse_tol), penalty)
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
        budget = solver._PASS_BLOCK_BYTES if rows is None else pass_block_budget(n, rows, kind)
        with mock.patch.object(solver, "_PASS_BLOCK_BYTES", budget):
            fusion, w, _ = majorize(u, penalty)
            dense_fusion, dense_w, _ = majorize(np.ascontiguousarray(u), penalty)
        assert fusion == dense_fusion
        assert np.array_equal(w, dense_w)
        self.check_against_reference(
            u, penalty, fusion, w, solver._fuse_threshold(penalty, u)
        )

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

    @pytest.mark.parametrize(
        "kind, rows",
        [*h1_and_lp([7, None]), pytest.param("h1-columns", None, id="one-column-spans")],
    )
    def test_trace_is_the_objective_at_the_result(self, kind, rows, monkeypatch):
        # lp merges (6 times in 40 iterations here), so its trace is the
        # quotient's count-weighted pass, compared with the point-level one.
        # h1 splits, and its last pass counts the saturated pairs between the
        # spans as one integer, so its fusion sum is added in another order.
        # The one-column-spans input solves once, on 120 one-column spans
        # (closed form, one step); the pass after that solve is the full
        # one, so the trace is the objective exactly.
        data, _ = random_instance(seed=4, K=3, M=20, P=50, p0=0.6, scale=6.0)
        if rows is not None:
            monkeypatch.setattr(solver, "_PASS_BLOCK_BYTES", pass_block_budget(60, rows, kind))
        if kind == "h1":
            lam, penalty = 16.0, PenaltySpec.h1(2.0)
        elif kind == "lp":
            lam, penalty = 0.2, PenaltySpec.lp(0.5)
        else:
            data, _ = random_instance(0, K=3, M=40, P=10, p0=0.8)
            lam, penalty = 1.0, PenaltySpec.h1(0.1)
        centroids, trace = mm_cluster(data, SolverConfig(lam=lam, penalty=penalty))
        f = objective(data, centroids.U, lam, penalty)
        if kind == "lp":
            assert np.unique(centroids.U, axis=1).shape[1] < data.point_count  # merged
        if kind == "h1-columns":
            assert trace.blocks == (120,) and trace.cg_iterations == (1,)
            assert trace.objectives[-1] == f
        else:
            assert trace.objectives[-1] == pytest.approx(f, rel=1e-13 if kind == "lp" else 1e-15)

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
    @staticmethod
    def large_scale(c):
        y = np.random.default_rng(0).normal(size=(5, 20))
        y[:, 0:5] += 4.0
        y[:, 5:10] -= 4.0
        return ObservedDataset.full(y * c)

    @pytest.mark.parametrize("c", [1e20, 1e100])
    def test_large_scale_descends(self, c):
        run = cluster_once(self.large_scale(c), 1.0, PenaltySpec.h1(c))
        assert run.trace.converged and run.trace.iterations == 1
        assert np.all(np.diff(run.trace.objectives) <= 0.0)

    @pytest.mark.parametrize(
        "kind, seed", [("h1", 1), ("h1", 2), ("h1", 4), ("h1", 5), ("lp", 3)]
    )
    def test_ordinary_scale_low_observation_inputs_descend(self, kind, seed):
        # Ordinary-scale inputs, 30% observed.  Each raised when the solve
        # also minimized a pull toward the feature means that the traced
        # objective left out.
        if kind == "h1":
            c, config = 1000.0, SolverConfig(0.1, PenaltySpec.h1(1000.0))
        else:
            c, config = 100.0, SolverConfig(1e-3, PenaltySpec.lp(0.5))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 30)) * c
        x[:, :15] += 3 * c
        mask = rng.random(x.shape) < 0.3
        _, trace = mm_cluster(ObservedDataset(x, mask), config)
        assert trace.converged

    def test_stiff_lambda_sweep_fails_only_at_the_known_cases(self):
        # Guards the h1 pass's Gram rounding at stiff lambda, the trigger the
        # MajorizationError docstring names: a rise shows up as a change of
        # this empty set; no run may stop on the CG cap.
        penalties = {"h1": PenaltySpec.h1(1.0), "lp": PenaltySpec.lp(0.5)}
        rises = set()
        for (kind, penalty), e, seed in itertools.product(
            penalties.items(), range(-12, 13, 2), range(5)
        ):
            x = np.random.default_rng(seed).normal(size=(5, 20))
            try:
                mm_cluster(ObservedDataset.full(x), SolverConfig(10.0**e, penalty))
            except MajorizationError:
                rises.add((kind, 10.0**e, seed))
        assert rises == set()

    def test_carries_the_rise(self, monkeypatch):
        # No known input rises, so the second solve is made to: it moves
        # every surrogate by 10, which raises the data term by about 1e4 and
        # leaves the fusion term.
        x = np.random.default_rng(1).normal(size=(5, 20))
        data, penalty = ObservedDataset.full(x), PenaltySpec.h1(1.0)
        solve, solved = solver._solve_weighted_system, []

        def rising(*args):
            v, steps = solve(*args)
            solved.append(v if not solved else v + 10.0)
            return solved[-1], steps

        monkeypatch.setattr(solver, "_solve_weighted_system", rising)
        with pytest.raises(MajorizationError) as err:
            mm_cluster(data, SolverConfig(1.0, penalty))
        e = err.value
        assert e.iteration == 2
        assert e.previous == objective(data, solved[0], 1.0, penalty)
        assert e.current == objective(data, solved[1], 1.0, penalty)
        assert (e.lam, e.kind, e.groups, e.outer_iteration) == (1.0, H1, 20, 2)
        assert str(e) == (
            f"majorization violated: objective rose {e.previous:.12g} -> {e.current:.12g}"
            " [outer iteration 2, lambda 1, penalty h1, G 20]"
        )
        copy = pickle.loads(pickle.dumps(e))
        assert (copy.iteration, copy.previous, copy.current, str(copy)) == (
            e.iteration, e.previous, e.current, str(e)
        )
        assert (copy.lam, copy.kind, copy.groups, copy.outer_iteration) == (1.0, H1, 20, 2)


class TestScaleEquivariance:
    """Scaling the data by c, sigma by c and lambda by c^(2-p) (h1: c^2)
    scales the minimizers by c, so a run must give the partition and the
    iteration count of c = 1.  The input: three clusters of 20 standard
    Gaussians in P = 5, centred 6 apart on every coordinate."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def run(kind, c):
        centers = np.repeat(6.0 * np.arange(3)[:, None], 5, axis=1)
        spec = SyntheticSpec(K=3, M=20, P=5, centers=centers, variance=1.0, seed=0)
        data = ObservedDataset.full(generate(spec)[0].values * c)
        if kind == "h1":
            return cluster_once(data, 64.0 * c**2, PenaltySpec.h1(2.0 * c))
        return cluster_once(data, c**1.5, PenaltySpec.lp(0.5))

    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1e-20, 1.0, 1e20, 1e150])
    @pytest.mark.parametrize("kind", ["h1", "lp"])
    def test_partition_and_iterations_match_unit_scale(self, kind, c):
        unit, scaled = self.run(kind, 1.0), self.run(kind, c)
        assert unit.partition.cluster_count == 3
        assert np.array_equal(scaled.partition.labels, unit.partition.labels)
        assert scaled.trace.iterations == unit.trace.iterations

    @settings(max_examples=30, deadline=None)
    @given(e=st.floats(-150, 150))
    @example(e=-150.0)
    @example(e=-100.0)
    @example(e=-20.0)
    @example(e=0.0)
    @example(e=20.0)
    @example(e=150.0)
    @pytest.mark.parametrize("kind", ["h1", "lp"])
    def test_any_scale_matches_unit_scale(self, kind, e):
        self.test_partition_and_iterations_match_unit_scale(kind, 10.0**e)


class TestTranslationEquivariance:
    """Adding c to every coordinate moves the minimizers by c, so an h1 run
    on :class:`TestScaleEquivariance`'s input and settings must give the
    partition and the iteration count of c = 0, and must not rise (raise
    MajorizationError).  Offsets stop at |c| = 1e6: from 1e7 on, x + c
    itself loses enough digits that iteration counts can move."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def run(c):
        centers = np.repeat(6.0 * np.arange(3)[:, None], 5, axis=1)
        spec = SyntheticSpec(K=3, M=20, P=5, centers=centers, variance=1.0, seed=0)
        data = ObservedDataset.full(generate(spec)[0].values + c)
        return cluster_once(data, 64.0, PenaltySpec.h1(2.0))

    @settings(max_examples=30, deadline=None)
    @given(e=st.floats(0, 6), sign=st.sampled_from([-1.0, 1.0]))
    @example(e=0.0, sign=1.0)
    @example(e=4.0, sign=1.0)
    @example(e=4.0, sign=-1.0)
    @example(e=6.0, sign=1.0)
    @example(e=6.0, sign=-1.0)
    def test_offset_matches_no_offset(self, e, sign):
        origin, moved = self.run(0.0), self.run(sign * 10.0**e)
        assert origin.partition.cluster_count == 3
        assert np.array_equal(moved.partition.labels, origin.partition.labels)
        assert moved.trace.iterations == origin.trace.iterations

    @settings(max_examples=30, deadline=None)
    @given(e=st.floats(0, 12), sign=st.sampled_from([-1.0, 1.0]))
    @example(e=9.0, sign=1.0)
    @example(e=12.0, sign=1.0)
    @example(e=12.0, sign=-1.0)
    def test_offset_surrogates_extract_the_same_clusters(self, e, sign):
        # Extraction alone, on the converged surrogates of the h1 run at
        # c = 0 moved by c: its Gram distances are taken on U less its
        # mean, so the offset costs only the digits of U + c itself.
        u = TestScaleEquivariance.run("h1", 1.0).centroids
        moved = u + sign * 10.0**e
        labels = extract_clusters(moved, default_merge_tol(moved)).labels
        assert np.array_equal(labels, extract_clusters(u, default_merge_tol(u)).labels)


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
            ("objective_rel_tol", math.nan), ("objective_rel_tol", math.inf),
            ("objective_rel_tol", -1.0),
        ],
    )
    def test_rejects_non_finite_and_negative_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"lam": 1.0, "penalty": H1_UNIT, field: value})

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_takes_the_shared_rule(self, lam):
        with pytest.raises(ValueError, match=f"lambda must be finite and positive, got {lam!r}"):
            SolverConfig(lam, H1_UNIT)

    def test_zero_settings_stay_legal(self):
        SolverConfig(lam=1.0, penalty=H1_UNIT, objective_rel_tol=0.0)

    def test_every_setting_is_reachable_from_cluster_once(self):
        # A setting that only tests can set belongs in a module constant;
        # cluster_once passes every one besides lam and penalty through.
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == ["lam", "penalty", "max_outer_iters", "objective_rel_tol"]
        data = ObservedDataset.full(np.random.default_rng(0).normal(size=(3, 8)))
        run = cluster_once(data, 0.5, PenaltySpec.lp(0.5), max_outer_iters=1)
        assert run.trace.iterations == 1 and run.penalty == PenaltySpec.lp(0.5)
        with pytest.raises(ValueError, match="objective_rel_tol must be finite"):
            cluster_once(data, 0.5, H1_UNIT, objective_rel_tol=math.nan)


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


def loop_row_blocks(U, parked):
    """Stand-in for solver._lp_row_blocks: the per-feature loop's distances,
    in one block."""
    return iter([(0, loop_distances(U))])


def solve_recording_merges(data, cfg, monkeypatch):
    """mm_cluster with each merge recorded as (iteration, G after it)."""
    merge = solver._Groups.merge
    calls, merges = [], []

    def recorded(self):
        merged = merge(self)
        calls.append(merged)
        if merged:
            merges.append((len(calls), self.V.shape[1]))
        return merged

    monkeypatch.setattr(solver._Groups, "merge", recorded)
    centroids, trace = mm_cluster(data, cfg)
    monkeypatch.setattr(solver._Groups, "merge", merge)
    return centroids, trace, merges


def solve_recording_weights(data, cfg, monkeypatch, spans=False):
    """mm_cluster with a copy of the weights of its last pass, in the points'
    order while every point has a column of its own; with ``spans``, also
    each column's span in that pass, in the same order."""
    fusion, last = solver._Groups.fusion, []

    def recorded(self):
        out = fusion(self)
        rep = self.rep
        own = rep is not None and len(rep) == len(self.W)
        span = np.repeat(np.arange(len(self.spans)), [b - a for a, b in self.spans])
        last[:] = [self.W[np.ix_(rep, rep)], span[rep]] if own else [self.W.copy(), span]
        return out

    monkeypatch.setattr(solver._Groups, "fusion", recorded)
    centroids, trace = mm_cluster(data, cfg)
    monkeypatch.setattr(solver._Groups, "fusion", fusion)
    return (centroids, trace, *last) if spans else (centroids, trace, last[0])


class TestFinalWeights:
    """``update_weights(centroids.U, penalty)`` is the solve's last pass for
    h1, which never fuses: bit for bit while no split has reordered the
    columns; after one has, within rounding on the blocks the last pass
    kept, and saturated between them; after an lp run fuses, the solve's
    weights are those of the fused groups, not of the expanded columns."""

    def test_h1_update_weights_are_the_last_pass(self, monkeypatch):
        data, _ = random_instance(seed=4, K=3, M=20, P=5, p0=0.6, scale=6.0)
        cfg = SolverConfig(lam=4.0, penalty=PenaltySpec.h1(2.0))
        centroids, _, w = solve_recording_weights(data, cfg, monkeypatch)
        assert w.any()
        assert np.array_equal(update_weights(centroids.U, cfg.penalty), w)

    @pytest.mark.parametrize(
        "case, splits",
        [
            pytest.param(
                lambda: (random_instance(0, K=3, M=15, P=5, p0=0.8, scale=3.0)[0],
                         SolverConfig(1.0, PenaltySpec.h1(0.5))),
                False, id="h1-rejected",
            ),
            pytest.param(lambda: cluster_h1_case(0), True, id="cluster-h1-0"),
        ],
    )
    def test_h1_update_weights_after_split_reorders(self, case, splits, monkeypatch):
        # A kept split leaves the columns reordered, so the last pass took
        # its Gram products in another order, and on cluster-h1-0 it found
        # every pair between the spans saturated and wrote only the spans'
        # own blocks.  Those agree within rounding, and the true weights
        # between the spans are at most the saturated weight (eps / 4) /
        # (2 sigma^2).  A rejected candidate moves no column.
        data, cfg = case()
        centroids, trace, w, span = solve_recording_weights(data, cfg, monkeypatch, spans=True)
        assert (set(trace.blocks) != {1}) == splits
        final = update_weights(centroids.U, cfg.penalty)
        if splits:
            assert span.max() + 1 == trace.blocks[-1]
            kept = span[:, None] == span
            np.testing.assert_allclose(final[kept], w[kept], rtol=1e-12, atol=0)
            eps = np.finfo(float).eps
            assert final[~kept].max() <= eps / 4 / (2.0 * cfg.penalty.sigma**2)
        else:
            assert np.array_equal(final, w)

    def test_fused_lp_run_ends_on_the_groups_weights(self, monkeypatch):
        x = np.random.default_rng(0).normal(size=(5, 30))
        x[:, :15] += 4.0
        cfg = SolverConfig(lam=2.0, penalty=PenaltySpec.lp(0.5))
        centroids, _, w = solve_recording_weights(ObservedDataset.full(x), cfg, monkeypatch)
        assert np.array_equal(w, np.zeros((1, 1)))  # everything fused into one group
        assert update_weights(centroids.U, cfg.penalty).max() > 1e7


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
        # The whole lp solve, fused-group merges included, must make the
        # per-feature loop kernel's merges, at the same iterations and to the
        # same G, and end in its partition and its objective within 1e-12.
        # Each pass must be the loop kernel's pass at the same point within
        # 1e-12 relative, so every traced objective is its iterate's exact
        # objective within 1e-12.  The two runs' objectives in between are
        # not compared with each other: near coalescence the run amplifies
        # any change in the last bit of a distance, and on this input the
        # loop kernel itself, summing the features in reverse order, leaves
        # its own run by 1.7e-12 relative before both converge.
        data, _ = random_instance(seed=3, K=3, M=20, P=50, p0=0.6, scale=6.0)
        cfg = SolverConfig(lam=0.2, penalty=PenaltySpec.lp(0.5))
        whole, whole_trace, _ = solve_recording_merges(data, cfg, monkeypatch)
        if rows is not None:  # the budget of the exact kernel, which takes
            # a block whose pairs mostly fail the Gram check, must not matter
            monkeypatch.setattr(
                model, "_EXACT_BLOCK_BYTES", exact_block_budget(50, 60, rows)
            )
        if pass_rows is not None:
            monkeypatch.setattr(
                solver, "_PASS_BLOCK_BYTES", pass_block_budget(60, pass_rows, "lp")
            )
        majorize, passes = solver._lp_pass, []

        def checked(U, penalty, W, fuse_tol, counts=None):
            fusion, close = majorize(U, penalty, W, fuse_tol, counts)
            want_w = np.empty_like(W)
            with mock.patch.object(solver, "_lp_row_blocks", loop_row_blocks):
                want, _ = majorize(U, penalty, want_w, fuse_tol, counts)
            assert fusion == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(W, want_w, rtol=2e-12, atol=0)
            passes.append(U.shape[1])
            return fusion, close

        monkeypatch.setattr(solver, "_lp_pass", checked)
        blocked, blocked_trace, merges = solve_recording_merges(data, cfg, monkeypatch)
        monkeypatch.setattr(solver, "_lp_pass", majorize)
        assert len(passes) == blocked_trace.iterations + 1 + len(merges)
        if pass_rows is None:  # the same pass blocks: bitwise the same run
            assert np.array_equal(blocked.U, whole.U)
            assert np.array_equal(blocked_trace.objectives, whole_trace.objectives)
        monkeypatch.setattr(solver, "_lp_row_blocks", loop_row_blocks)
        loop, loop_trace, loop_merges = solve_recording_merges(data, cfg, monkeypatch)
        groups = np.unique(blocked.U, axis=1, return_inverse=True)[1]
        assert groups.max() + 1 < data.point_count  # merged
        if pass_rows is not None:  # some fused group spans two pass blocks
            block_of = np.arange(data.point_count) // pass_rows
            assert any(len(set(block_of[groups == g])) > 1 for g in range(groups.max() + 1))
        assert merges == loop_merges
        assert blocked_trace.iterations == loop_trace.iterations
        assert blocked_trace.objectives[-1] == pytest.approx(loop_trace.objectives[-1], rel=1e-12)
        loop_groups = np.unique(loop.U, axis=1, return_inverse=True)[1]
        assert Partition(groups).same_clustering(Partition(loop_groups))
        labels = [extract_clusters(c.U, default_merge_tol(c.U)).labels for c in (blocked, loop)]
        assert np.array_equal(*labels)


BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """bench/workloads.py, loaded read-only (no bytecode written there)."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules["workloads"] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules["workloads"]
    return module


def cluster_h1_case(index):
    """The benchmark's cluster-h1 input ``index`` of seed 7 (N = 1500, P = 50,
    p0 = 0.6) with the workload's settings."""
    points, _, observed = bench_workloads().ClusterH1(7)._draw(index)
    return ObservedDataset(points.T, observed.T), SolverConfig(4.0, PenaltySpec.h1(2.0))


def fig4_case(preset, p0):
    """``simulate --preset <preset> --p0 <p0>``'s data and solver settings."""
    p = SIMULATE_PRESETS[preset]
    spec = SyntheticSpec(
        K=p["K"], M=p["M"], P=p["P"], centers=block_centers(p["K"], p["P"], p["scale"]),
        variance=p["variance"], seed=_derive_seed(0, 1),
    )
    data = apply_mask(generate(spec)[0], MaskSpec(p0=p0, seed=_derive_seed(0, 2)))
    penalty = PenaltySpec.h1(p["sigma"])
    return data, SolverConfig(p["lam"], penalty, max_outer_iters=150, objective_rel_tol=1e-10)


SPLIT_CASES = {
    "cluster-h1-0": lambda: cluster_h1_case(0),
    "cluster-h1-1": lambda: cluster_h1_case(1),
    "fig4-dataset1": lambda: fig4_case("fig4-dataset1", 0.5),
    "fig4-dataset2": lambda: fig4_case("fig4-dataset2", 0.5),
}


def single_span():
    """The solve with every h1 system kept whole: W's one span ``(0, G)``."""
    return mock.patch.object(solver._Groups, "split", lambda self, f, lam: None)


def traced_peak_solve(data, cfg):
    """mm_cluster and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        centroids, trace = mm_cluster(data, cfg)
        return centroids, trace, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def split_and_single_span(case):
    data, cfg = SPLIT_CASES[case]()
    split = traced_peak_solve(data, cfg)
    with single_span():
        single = traced_peak_solve(data, cfg)
    return data, cfg, split, single


class TestBlockSplit:
    """h1 solves keep only the diagonal blocks of W over the components of
    their non-negligible weights; the dropped weights may raise the true
    objective by at most eps * |f| per solve."""

    @pytest.mark.parametrize("graph", ["random", "chain", "none", "all", "isolated"])
    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_heavy_components_match_union_find(self, graph, rows, monkeypatch):
        # Breadth-first labels of the pairs above the floor, numbered by
        # lowest member as _components numbers them; ``rows`` frontier rows
        # per gathered block.
        n = 23
        rng = np.random.default_rng(2)
        w = {
            "random": rng.random((n, n)) ** 8,
            "chain": np.zeros((n, n)),
            "none": np.full((n, n), 0.25),
            "all": np.ones((n, n)),
            "isolated": 0.5 * rng.random((n, n)),
        }[graph]
        if graph == "chain":  # one component of diameter n - 1
            order = rng.permutation(n)
            w[order[:-1], order[1:]] = 1.0
        if graph == "isolated":  # two heavy pairs and 19 single columns
            w[[3, 10], [17, 11]] = 1.0
        w = np.triu(w, 1) + np.triu(w, 1).T
        if rows is not None:
            monkeypatch.setattr(solver, "_PASS_BLOCK_BYTES", pass_block_budget(n, rows))
        labels, cut = solver._heavy_components(w, 0.5)
        assert np.array_equal(labels, union_find_labels(w > 0.5))
        # the weight between components, over ordered pairs
        dropped = np.where(labels[:, None] != labels, w, 0).sum()
        np.testing.assert_allclose(cut, dropped, rtol=1e-12, atol=0)

    def test_spans_solve_the_block_diagonal_system(self):
        # Each span's columns are the standalone CG solve of its diagonal
        # block of W, degrees included, at its share sqrt((b - a) / n) of
        # each feature's residual target, whatever the weights between the
        # blocks; over all spans, every feature's residual meets the whole
        # target, the one-span solve's target for W with those weights zeroed
        # (here its relative part, _CG_TOL * ||rhs||).
        rng = np.random.default_rng(5)
        n, spans, lam = 12, [(0, 4), (4, 5), (5, 7), (7, 12)], 0.5
        w = rng.uniform(0.1, 1.0, size=(n, n))
        w = np.triu(w, 1) + np.triu(w, 1).T
        kept = np.zeros_like(w)
        for a, b in spans:
            kept[a:b, a:b] = w[a:b, a:b]
        diag = (rng.random((3, n)) < 0.7).astype(float)
        rhs = diag * rng.normal(size=(3, n))
        anchor = rng.normal(size=(3, n))
        cg, targets = solver._solve_cg, []

        def recorded(diag, w, deg, lam, r, tol):
            targets.append(tol)
            return cg(diag, w, deg, lam, r, tol)

        with mock.patch.object(solver, "_solve_cg", recorded):
            solver._solve_weighted_system(diag, rhs, kept, lam, anchor, [(0, n)])
        (target,) = targets
        assert np.array_equal(target, solver._CG_TOL * np.linalg.norm(rhs, axis=1))
        v, steps = solver._solve_weighted_system(diag, rhs, w, lam, anchor, spans)
        counts, residual = [], np.zeros_like(v)
        for a, b in spans:
            block, deg = w[a:b, a:b], w[a:b, a:b].sum(axis=1)
            x, m = anchor[:, a:b], diag[:, a:b]
            r = rhs[:, a:b] - m * x
            r -= 2.0 * lam * (x * deg - x @ block)
            d, k = cg(m, block, deg, lam, r, target * math.sqrt((b - a) / n))
            counts.append(k)
            assert np.array_equal(v[:, a:b], x + d)
            residual[:, a:b] = r - m * d - 2.0 * lam * (d * deg - d @ block)
        assert steps == max(counts)
        assert np.all(np.linalg.norm(residual, axis=1) <= target)

    def test_spans_keep_the_whole_floor(self):
        # Only the relative part of the target is shared out: where the
        # backward-stable floor binds (an anchor far larger than the data),
        # every span runs to that floor, which no finite-precision solve of
        # its block can beat, and meets it.
        rng = np.random.default_rng(5)
        n, spans, lam = 12, [(0, 4), (4, 5), (5, 7), (7, 12)], 0.5
        w = rng.uniform(0.1, 1.0, size=(n, n))
        w = np.triu(w, 1) + np.triu(w, 1).T
        diag = 1.0 + (rng.random((3, n)) < 0.7)
        rhs = diag * rng.normal(size=(3, n))
        anchor = 1e8 * rng.normal(size=(3, n))
        cg, solves = solver._solve_cg, []

        def recorded(diag, w, deg, lam, r, tol):
            d, k = cg(diag, w, deg, lam, r, tol)
            res = r - diag * d - 2.0 * lam * (d * deg - d @ w)
            solves.append((tol, np.linalg.norm(res, axis=1)))
            return d, k

        with mock.patch.object(solver, "_solve_cg", recorded):
            solver._solve_weighted_system(diag, rhs, w, lam, anchor, spans)
        # the one-column span is solved in closed form
        assert len(solves) == 3
        floor = solves[0][0]
        assert np.all(floor > solver._CG_TOL * np.linalg.norm(rhs, axis=1))
        for tol, res in solves:
            assert np.array_equal(tol, floor)
            assert np.all(res <= tol)

    def test_one_column_spans_are_solved_in_one_step(self):
        # A one-column span has no weight: its system is diagonal, and is
        # solved in closed form, counted as one step, for any weights
        # between the spans; unobserved entries keep their anchor.
        rng = np.random.default_rng(6)
        n = 9
        w = rng.uniform(0.1, 1.0, size=(n, n))
        w = np.triu(w, 1) + np.triu(w, 1).T
        diag = rng.integers(0, 3, size=(4, n)).astype(float)
        rhs = diag * rng.normal(size=(4, n))
        anchor = rng.normal(size=(4, n))
        spans = [(k, k + 1) for k in range(n)]
        v, steps = solver._solve_weighted_system(diag, rhs, w, 0.5, anchor, spans)
        assert steps == 1
        seen = diag > 0
        np.testing.assert_allclose(v[seen], rhs[seen] / diag[seen], rtol=1e-15, atol=0)
        assert np.array_equal(v[~seen], anchor[~seen])

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_split_matches_the_single_span_solve(self, case):
        # Same partition and outer iteration count, no solve with more CG
        # iterations (each span runs its own batch), and final objective
        # within 1e-12.  Objectives in between are not compared: a solve
        # that stops at the CG tolerance carries the dropped pairs' effect
        # into the next objective (1.4e-8 relative once on cluster-h1-0).
        _, _, (u, trace, _), (u0, trace0, _) = split_and_single_span(case)
        assert max(trace.blocks) > 1 and set(trace0.blocks) == {1}
        assert trace.iterations == trace0.iterations
        assert all(k <= k0 for k, k0 in zip(trace.cg_iterations, trace0.cg_iterations))
        assert trace.objectives[-1] == pytest.approx(trace0.objectives[-1], rel=1e-12, abs=0)
        labels = [extract_clusters(c.U, default_merge_tol(c.U)).labels for c in (u, u0)]
        assert np.array_equal(*labels)

    def test_split_solve_peaks_no_higher_than_the_dense_one(self):
        # The blocks are views of the one weight buffer and the columns are
        # reordered in place of gathering them, so a split costs at most
        # O(P * N) beyond the dense solve (it measured 0.4 P*N*8 bytes lower).
        data, _, (_, trace, peak), (_, _, peak0) = split_and_single_span("cluster-h1-0")
        assert min(trace.blocks) == 3
        p, n = data.feature_count, data.point_count
        assert peak <= peak0 + 2 * 8 * p * n

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(lambda: fig4_case("fig4-dataset1", 0.5), id="fig4-dataset1"),
            pytest.param(lambda: fig4_case("fig4-dataset2", 1.0), id="fig4-dataset2-p1"),
            pytest.param(
                lambda: (random_instance(1, K=2, M=15, P=5, p0=0.8, scale=2.0)[0],
                         SolverConfig(0.1, PenaltySpec.h1(0.5))),
                id="rejects-then-splits",
            ),
            pytest.param(  # its kept spans fail the re-check at solve 6
                lambda: (random_instance(2, K=3, M=15, P=5, p0=0.8, scale=1.5)[0],
                         SolverConfig(1.0, PenaltySpec.h1(0.3))),
                id="drops-kept-spans",
            ),
        ],
    )
    def test_every_split_meets_the_dropped_mass_bound(self, case):
        data, cfg = case()
        sigma, solves = cfg.penalty.sigma, []
        solve = solver._solve_weighted_system

        def recorded(diag, rhs, W, lam, anchor, spans):
            ends = [b for _, b in spans]
            assert [a for a, _ in spans] == [0, *ends[:-1]] and ends[-1] == len(W)
            kept = np.zeros(W.shape, dtype=bool)
            for a, b in spans:
                kept[a:b, a:b] = True
            # W between the spans may be left from an earlier pass: the
            # anchor's own weights are the ones the solve drops.
            true = update_weights(anchor, cfg.penalty)
            solves.append((len(spans), float(np.where(kept, 0.0, true).sum())))
            return solve(diag, rhs, W, lam, anchor, spans)

        with mock.patch.object(solver, "_solve_weighted_system", recorded):
            _, trace = mm_cluster(data, cfg)
        assert [k for k, _ in solves] == list(trace.blocks)
        assert any(k > 1 for k, _ in solves)
        eps = np.finfo(float).eps
        for (k, dropped), f in zip(solves, trace.objectives):
            if k > 1:
                assert cfg.lam * 2 * sigma**2 * dropped <= eps * abs(f)

    @pytest.mark.parametrize(
        "data, cfg, labelled",
        [
            pytest.param(
                random_instance(3, K=3, M=20, P=50, p0=0.6, scale=6.0)[0],
                SolverConfig(0.2, PenaltySpec.lp(0.5)), 0, id="lp-fusing",
            ),
            pytest.param(
                random_instance(0, K=3, M=15, P=5, p0=0.8, scale=2.0)[0],
                SolverConfig(0.1, PenaltySpec.h1(0.5)), 11, id="h1-connected",
            ),
            pytest.param(
                random_instance(0, K=3, M=15, P=5, p0=0.8, scale=3.0)[0],
                SolverConfig(1.0, PenaltySpec.h1(0.5)), 5, id="h1-rejected",
            ),
        ],
    )
    def test_unsplit_runs_are_bitwise_the_single_span_path(self, data, cfg, labelled):
        # lp never splits; these h1 runs look for a split (their heavy-pair
        # graph is connected, or its components cut too much weight) and
        # never keep one.  A candidate is judged on W before any column
        # moves, and h1 never merges, so an h1 run regroups nothing.
        heavy, calls = solver._heavy_components, []
        regroup, moves = solver._Groups._regroup, []

        def counted(W, floor):
            calls.append(len(W))
            return heavy(W, floor)

        def recorded(self, new_of_old):
            moves.append(new_of_old)
            regroup(self, new_of_old)

        with mock.patch.object(solver, "_heavy_components", counted), \
                mock.patch.object(solver._Groups, "_regroup", recorded):
            u, trace = mm_cluster(data, cfg)
        with single_span():
            u0, trace0 = mm_cluster(data, cfg)
        assert len(calls) == labelled
        if cfg.penalty.kind == H1:
            assert moves == []
        assert set(trace.blocks) == {1}
        assert len(trace.blocks) == len(trace.cg_iterations) == trace.iterations
        assert trace.cg_iterations == trace0.cg_iterations
        assert np.array_equal(trace.objectives, trace0.objectives)
        assert np.array_equal(u.U, u0.U)


@functools.lru_cache(maxsize=None)
def recorded_passes(case):
    """mm_cluster on ``SPLIT_CASES[case]`` with one record per pass of
    ``_Groups.fusion``: whether it saturated, its span count, and, for a
    saturated pass, the relative gaps to the full pass at the same V (fusion
    sum, kept blocks) and the full pass's largest weight between the spans.
    Also the trace and the number of ``_regroup`` calls."""
    data, cfg = SPLIT_CASES[case]()
    fusion, regroup = solver._Groups.fusion, solver._Groups._regroup
    passes, regroups = [], []

    def recorded(self):
        out = fusion(self)
        record = {"saturated": self.saturated, "spans": len(self.spans)}
        if self.saturated:
            full, w, _ = majorize(self.V, self.penalty)
            record["fusion"] = abs(out - full) / full
            kept = np.zeros(w.shape, dtype=bool)
            for a, b in self.spans:
                kept[a:b, a:b] = True
                np.testing.assert_allclose(self.W[a:b, a:b], w[a:b, a:b], rtol=1e-12, atol=0)
            record["between"] = w[~kept].max()
        passes.append(record)
        return out

    def counted(self, new_of_old):
        regroups.append(len(new_of_old))
        regroup(self, new_of_old)

    with mock.patch.object(solver._Groups, "fusion", recorded), \
            mock.patch.object(solver._Groups, "_regroup", counted):
        _, trace = mm_cluster(data, cfg)
    return cfg, trace, passes, len(regroups)


class TestSaturatedPass:
    """Once every pair between an h1 solve's spans has phi exactly 1.0, the
    pass counts those pairs as one integer and computes only the spans' own
    blocks; every other pass is the full one."""

    @pytest.mark.parametrize("case", ["cluster-h1-0", "fig4-dataset1"])
    def test_matches_the_full_pass_at_the_same_point(self, case):
        # The kept blocks within 1e-12 (asserted per pass while recording:
        # the gemm shapes differ), the fusion sum within 1e-14, and the full
        # pass's weights between the spans are the saturated ones.
        cfg, _, passes, _ = recorded_passes(case)
        saturated = [p for p in passes if p["saturated"]]
        assert saturated
        eps = np.finfo(float).eps
        for p in saturated:
            assert p["fusion"] <= 1e-14
            assert p["between"] <= eps / 4 / (2.0 * cfg.penalty.sigma**2)

    def test_cluster_h1_saturates_after_every_solve_and_regroups_once(self):
        # The reorder of the kept split in solve 1 re-runs only the new
        # spans' blocks, and the split after a saturated pass keeps its
        # spans without reading W.
        _, trace, passes, regroups = recorded_passes("cluster-h1-0")
        assert trace.blocks == (3, 3, 3, 3)
        assert [p["saturated"] for p in passes] == [False, True, True, True, True]
        assert regroups == 1

    @pytest.mark.parametrize("case", ["cluster-h1-0", "fig4-dataset1", "fig4-dataset2"])
    def test_the_mean_imputed_start_takes_the_full_pass(self, case):
        _, _, passes, _ = recorded_passes(case)
        assert passes[0] == {"saturated": False, "spans": 1}
        # fig4-dataset2's spans are too close for the bound: full passes
        assert any(p["saturated"] for p in passes) == (case != "fig4-dataset2")

    @staticmethod
    def two_spans(x_min):
        """Two spans of two columns on a line, their nearest pair at
        d^2 / (2 sigma^2) = x_min, sigma = 1, which the span bound meets
        exactly up to rounding."""
        gap = math.sqrt(2.0 * x_min)
        x = np.zeros((3, 4))
        x[0] = [0.0, 0.5, 0.5 + gap, 1.0 + gap]
        groups = solver._Groups(ObservedDataset.full(x), x, PenaltySpec.h1(1.0))
        groups.spans = [(0, 2), (2, 4)]
        groups.W[:] = -1.0  # an earlier pass's weights
        full, w, _ = majorize(x, groups.penalty)
        return groups, groups.fusion(), full, w

    @pytest.mark.parametrize("below", [1e-3, 1e-9])
    def test_spans_just_short_of_the_threshold_take_the_full_pass(self, below):
        groups, fusion, full, w = self.two_spans(solver._H1_SATURATED * (1.0 - below))
        assert not groups.saturated
        assert fusion == full
        assert np.array_equal(groups.W, w)

    def test_spans_past_the_threshold_keep_w_between_them(self):
        groups, fusion, full, w = self.two_spans(solver._H1_SATURATED * 1.001)
        assert groups.saturated
        assert fusion == pytest.approx(full, rel=1e-15)
        np.testing.assert_allclose(groups.W[:2, :2], w[:2, :2], rtol=1e-12, atol=0)
        np.testing.assert_allclose(groups.W[2:, 2:], w[2:, 2:], rtol=1e-12, atol=0)
        assert np.all(groups.W[:2, 2:] == -1.0) and np.all(groups.W[2:, :2] == -1.0)


class TestOnePassPerPenalty:
    """Every pass of a penalty runs through that penalty's one function:
    the solve's (the start, each iteration's, the reorder after a kept
    split), ``update_weights``' and ``objective``'s."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = {"_h1_pass": 0, "_lp_pass": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(solver, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(solver, name, counted)
        return calls

    @pytest.mark.parametrize("case, regroups", [
        # the start, a full pass, a kept split's reorder, saturated passes
        (SPLIT_CASES["cluster-h1-0"], 1),
        # the start, then one solve on 120 one-column spans
        (lambda: (random_instance(0, K=3, M=40, P=10, p0=0.8)[0],
                  SolverConfig(1.0, PenaltySpec.h1(0.1))), 0),
    ], ids=["cluster-h1-0", "one-column-spans"])
    def test_every_h1_solve_pass_is_the_h1_pass(self, case, regroups, monkeypatch):
        data, cfg = case()
        calls = self.count_passes(monkeypatch)
        _, trace = mm_cluster(data, cfg)
        assert calls == {"_h1_pass": trace.iterations + 1 + regroups, "_lp_pass": 0}

    @pytest.mark.parametrize("penalty, name", [
        (H1_UNIT, "_h1_pass"), (PenaltySpec.lp(0.5), "_lp_pass"),
    ], ids=["h1", "lp"])
    def test_update_weights_and_objective_take_one_pass(self, penalty, name, rng, monkeypatch):
        data, _ = random_instance(seed=1, K=2, M=4, P=5)
        U = rng.normal(size=(data.values.shape[0], data.point_count))
        calls = self.count_passes(monkeypatch)
        update_weights(U, penalty)
        objective(data, U, 1.0, penalty)
        assert calls[name] == 2 and sum(calls.values()) == 2
