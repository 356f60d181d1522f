import itertools
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecluster.analysis import (
    SuccessCurveSpec,
    adjusted_rand_index,
    cluster_once,
    fill_missing,
    pca_plot_table,
    pca_project,
    success_curve,
)
from fusecluster.datagen import MaskSpec, apply_mask, block_centers, gen_uniform_kappa, generate
from fusecluster.model import ClusterGeometry, ObservedDataset, Partition, SyntheticSpec
from fusecluster.penalty import PenaltySpec, default_h1_sigma
from fusecluster.solver import (
    MajorizationError,
    SolverConfig,
    default_merge_tol,
    extract_clusters,
    mm_cluster,
)


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
        coords = pca_project(pts)
        assert np.abs(coords[1]).max() <= 1e-10

    def test_planar_distances_preserved(self, rng):
        pts = rng.normal(size=(2, 10))
        coords = pca_project(pts)
        for i in range(10):
            for j in range(10):
                orig = np.linalg.norm(pts[:, i] - pts[:, j])
                proj = np.linalg.norm(coords[:, i] - coords[:, j])
                assert proj == pytest.approx(orig, abs=1e-9)

    def test_captures_maximal_variance(self, rng):
        pts = rng.normal(size=(6, 40)) * np.array([5, 3, 1, 1, 1, 1])[:, None]
        coords = pca_project(pts)
        captured = coords.var(axis=1, ddof=0).sum()
        centered = pts - pts.mean(axis=1, keepdims=True)
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            other = (q.T @ centered).var(axis=1, ddof=0).sum()
            assert other <= captured + 1e-8

    def test_equivariant_to_orthogonal_rotation(self, rng):
        pts = rng.normal(size=(4, 15))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        c1 = pca_project(pts)
        c2 = pca_project(q @ pts)
        d1 = np.linalg.norm(c1[:, :, None] - c1[:, None, :], axis=0)
        d2 = np.linalg.norm(c2[:, :, None] - c2[:, None, :], axis=0)
        np.testing.assert_allclose(d1, d2, atol=1e-8)

    def test_deterministic_sign_convention(self, rng):
        pts = rng.normal(size=(3, 8))
        c1 = pca_project(pts)
        c2 = pca_project(pts)
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


class TestMemoryLayout:
    """Results depend on the numbers and the mask, not on array layout."""

    @pytest.mark.parametrize(
        "penalty, lam", [(PenaltySpec.h1(2.0), 4.0), (PenaltySpec.lp(0.5), 0.05)], ids=["h1", "lp"]
    )
    def test_c_and_fortran_datasets_give_bitwise_equal_results(self, penalty, lam):
        spec = SyntheticSpec(K=3, M=20, P=50, centers=block_centers(3, 50, 2.0), variance=1.0)
        data, truth = generate(spec)
        data = apply_mask(data, MaskSpec(p0=0.6, seed=1))
        results = []
        for order in "CF":
            laid_out = ObservedDataset(
                np.array(data.values, order=order), np.array(data.mask, order=order)
            )
            centroids, trace = mm_cluster(laid_out, SolverConfig(lam=lam, penalty=penalty))
            U = centroids.U
            results.append(
                (
                    U.tobytes(),
                    trace.objectives.tobytes(),
                    extract_clusters(U, default_merge_tol(U)).labels.tolist(),
                    pca_plot_table(laid_out, U, truth),
                )
            )
        for name, c, f in zip(("centroids", "trace", "labels", "pca rows"), *results):
            assert c == f, name

    def test_pca_project_of_a_fortran_matrix(self, rng):
        points = rng.normal(size=(50, 300))
        fortran = pca_project(np.asfortranarray(points))
        assert fortran.tobytes() == pca_project(points).tobytes()


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
            penalty=PenaltySpec.h1(1.0),
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
            penalty=PenaltySpec.h1(1.0),
            max_outer_iters=80,
        )

        def generator(m, seed):
            return gen_uniform_kappa(2, m, 20, 0.3, seed=seed)

        (cell,) = success_curve(generator, spec)
        assert cell.success_rate == 1.0


def one_cluster(m, seed):
    """A generator for the lambda-order tests: the truth is one cluster."""
    data = ObservedDataset.full(np.zeros((2, m)))
    return data, Partition(np.zeros(m, dtype=int)), ClusterGeometry(1.0, 0.5, 1.0, 2)


def record_lambdas(monkeypatch, tmp_path, succeeds):
    """Replace the grid's solve by a stub that recovers the truth exactly
    when ``succeeds(lam)``.  A forked grid worker shares no list with the
    test, so the stub appends each lambda, with the id of the process that
    ran it, to a file under ``tmp_path``.  Returns a function that reads the
    lambdas back by process id, each process's in call order."""
    log = tmp_path / "lambdas"

    def fake_cluster_once(data, lam, **settings):
        with open(log, "a") as fh:  # one short append per call
            fh.write(f"{os.getpid()} {lam!r}\n")
        n = data.point_count
        labels = np.zeros(n, dtype=int) if succeeds(lam) else np.arange(n)
        return SimpleNamespace(partition=Partition(labels))

    def calls():
        by_process = {}
        for line in log.read_text().splitlines():
            pid, lam = line.split()
            by_process.setdefault(int(pid), []).append(float(lam))
        return by_process

    monkeypatch.setattr("fusecluster.analysis.cluster_once", fake_cluster_once)
    return calls


def usable_cpus(monkeypatch, count):
    """Make the grid see ``count`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestLambdaOrder:
    GRID = dict(p0_grid=(1.0, 0.5), M_grid=(3,), trials=2)

    @staticmethod
    def assert_whole_trials(processes, per_trial, trials):
        """Every process ran whole trials, each trial the lambdas
        ``per_trial`` (both p0 in turn), and ``trials`` of them in all."""
        assert sum(len(lams) for lams in processes) == trials * len(per_trial)
        for lams in processes:
            assert lams == per_trial * (len(lams) // len(per_trial))

    def test_distinct_lambdas_descend_once_per_cell(self, monkeypatch, tmp_path):
        calls = record_lambdas(monkeypatch, tmp_path, lambda lam: False)
        spec = SuccessCurveSpec(lambda_grid=(2.0, 128.0, 8.0, 32.0, 8.0), **self.GRID)
        cells = success_curve(one_cluster, spec)
        assert [c.success_rate for c in cells] == [0.0, 0.0]
        self.assert_whole_trials(calls().values(), [128.0, 32.0, 8.0, 2.0] * 2, trials=2)

    def test_stops_at_the_first_success(self, monkeypatch, tmp_path):
        calls = record_lambdas(monkeypatch, tmp_path, lambda lam: lam <= 32.0)
        spec = SuccessCurveSpec(lambda_grid=(2.0, 8.0, 32.0, 128.0), **self.GRID)
        cells = success_curve(one_cluster, spec)
        assert [c.success_rate for c in cells] == [1.0, 1.0]
        self.assert_whole_trials(calls().values(), [128.0, 32.0] * 2, trials=2)

    @pytest.mark.parametrize(
        "grid", [(32.0, 2.0, 8.0), (8.0, 8.0, 2.0, 32.0, 2.0), (2, 8, 32)]
    )
    def test_permuted_or_repeated_grid_gives_the_same_cells(self, grid):
        def generator(m, seed):
            return gen_uniform_kappa(2, m, 12, 0.4, seed=seed)

        def cells(lambda_grid):
            spec = SuccessCurveSpec(
                p0_grid=(1.0, 0.5),
                M_grid=(4,),
                lambda_grid=lambda_grid,
                trials=2,
                base_seed=7,
                penalty=PenaltySpec.h1(1.0),
                max_outer_iters=60,
            )
            return success_curve(generator, spec)

        assert cells(grid) == cells((2.0, 8.0, 32.0))

    @pytest.mark.parametrize("lam", (math.nan, 0.0, -8.0, math.inf, -math.inf))
    def test_spec_rejects_a_lambda_that_is_not_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match=f"got {lam!r}"):
            SuccessCurveSpec(p0_grid=(1.0,), M_grid=(4,), lambda_grid=(8.0, lam))


class TestForkedGrid:
    """success_curve runs its (M, trial) tasks on every usable CPU: the
    caller runs every n-th task from the first, and each of n - 1 forked
    workers the tasks dealt to it in turn."""

    @staticmethod
    def cells(**grid):
        spec = SuccessCurveSpec(
            p0_grid=(1.0, 0.6),
            lambda_grid=(2.0, 8.0, 32.0),
            base_seed=3,
            penalty=PenaltySpec.h1(0.5),
            max_outer_iters=60,
            **grid,
        )
        return success_curve(lambda m, seed: gen_uniform_kappa(2, m, 12, 0.4, seed=seed), spec)

    def test_cells_do_not_depend_on_the_cpu_count(self, monkeypatch):
        grid = dict(M_grid=(4, 6), trials=3)  # 6 tasks
        unpatched = self.cells(**grid)
        assert len({c.success_rate for c in unpatched}) > 1  # not all alike
        for count in (1, 4):
            usable_cpus(monkeypatch, count)
            assert self.cells(**grid) == unpatched, count

    def test_the_caller_and_each_worker_run_trials(self, monkeypatch, tmp_path):
        calls = record_lambdas(monkeypatch, tmp_path, lambda lam: True)
        usable_cpus(monkeypatch, 3)
        spec = SuccessCurveSpec(p0_grid=(1.0,), M_grid=(3,), lambda_grid=(8.0,), trials=5)
        success_curve(one_cluster, spec)
        processes = calls()
        assert sorted(len(lams) for lams in processes.values()) == [1, 2, 2]  # dealt in turn
        assert os.getpid() in processes

    def test_a_workers_error_reaches_the_caller(self, monkeypatch):
        caller = os.getpid()

        def fake_cluster_once(data, lam, **settings):
            if os.getpid() != caller:
                run = dict(lam=lam, kind="h1", groups=data.point_count, outer_iteration=7)
                raise MajorizationError(7, 1.5, 2.5, **run)
            return SimpleNamespace(partition=Partition(np.zeros(data.point_count, dtype=int)))

        monkeypatch.setattr("fusecluster.analysis.cluster_once", fake_cluster_once)
        usable_cpus(monkeypatch, 2)
        spec = SuccessCurveSpec(p0_grid=(1.0,), M_grid=(3,), lambda_grid=(8.0,), trials=2)
        with pytest.raises(MajorizationError) as raised:
            success_curve(one_cluster, spec)
        error = raised.value
        assert (error.iteration, error.previous, error.current) == (7, 1.5, 2.5)
        # The run arrives with it: lambda, penalty kind, G and outer iteration.
        assert (error.lam, error.kind, error.groups, error.outer_iteration) == (8.0, "h1", 3, 7)
        assert str(error).endswith("[outer iteration 7, lambda 8, penalty h1, G 3]")
        assert "in grid worker" in str(error.__cause__)  # the worker's traceback
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_the_lowest_tasks_error_is_raised(self, monkeypatch):
        # Every solve fails, each with its own process id: the serial loop
        # would raise task 0's error, which the caller runs.
        def fake_cluster_once(data, lam, **settings):
            raise MajorizationError(os.getpid(), 1.0, 2.0)

        monkeypatch.setattr("fusecluster.analysis.cluster_once", fake_cluster_once)
        usable_cpus(monkeypatch, 3)
        spec = SuccessCurveSpec(p0_grid=(1.0,), M_grid=(3,), lambda_grid=(8.0,), trials=3)
        with pytest.raises(MajorizationError) as raised:
            success_curve(one_cluster, spec)
        assert raised.value.iteration == os.getpid()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_caller_that_leaves_early_stops_its_workers(self, monkeypatch):
        class Leave(BaseException):
            pass

        caller = os.getpid()

        def fake_cluster_once(data, lam, **settings):
            if os.getpid() == caller:
                raise Leave
            time.sleep(60)  # a worker that would outlive the call

        monkeypatch.setattr("fusecluster.analysis.cluster_once", fake_cluster_once)
        usable_cpus(monkeypatch, 2)
        spec = SuccessCurveSpec(p0_grid=(1.0,), M_grid=(3,), lambda_grid=(8.0,), trials=2)
        start = time.monotonic()
        with pytest.raises(Leave):
            success_curve(one_cluster, spec)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestClusterOnce:
    def test_reports_run_metadata(self):
        data, truth, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        run = cluster_once(data, lam=8.0, penalty=PenaltySpec.h1(1.0))
        assert run.partition.point_count == 10
        assert run.trace.objectives.ndim == 1
        assert run.penalty == PenaltySpec.h1(1.0)

    def test_stray_keyword_is_a_type_error(self):
        # sigma belongs to the PenaltySpec; it is no cluster_once keyword.
        data, _, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        with pytest.raises(TypeError, match="sigma"):
            cluster_once(data, 1.0, PenaltySpec.lp(0.5), sigma=1.0)

    def test_auto_sigma_recorded(self):
        data, truth, _ = gen_uniform_kappa(2, 5, 10, 0.4, seed=3)
        run = cluster_once(data, lam=1.0)
        assert run.penalty == PenaltySpec.h1(default_h1_sigma(data))
