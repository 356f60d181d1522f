"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import filecmp
import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fusecluster.analysis import (
    SuccessCurveSpec,
    adjusted_rand_index,
    cluster_once,
    exact_success,
    success_curve,
)
from fusecluster.cli import main as cli_main
from fusecluster.datagen import (
    MaskSpec,
    apply_mask,
    block_centers,
    gen_uniform_kappa,
    generate,
    wine_prepare,
)
from fusecluster.model import ObservedDataset, Partition, SyntheticSpec, estimate_geometry
from fusecluster.oracle import l0_solve, monte_carlo_bound_check
from fusecluster.penalty import PenaltySpec, phi, surrogate
from fusecluster.solver import (
    SolverConfig,
    mean_imputed,
    mm_cluster,
    objective,
    objective_gradient,
    update_centroids,
    update_weights,
)
from fusecluster.theory import (
    eta0,
    eta0_enumerate,
    eta0_two_clusters,
    log_beta0,
    log_delta0,
    log_gamma0,
)


@contextmanager
def criterion(number, name, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL [{time.time() - start:.1f}s]")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed <= budget_s else f"PASS but over budget ({budget_s}s)"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s]")
    assert elapsed <= budget_s


def test_01_theory_formula_pins():
    with criterion(1, "theory formula pins", 1.0):
        assert math.exp(log_gamma0(1.0, 2)) == pytest.approx(2.0 / math.e, rel=1e-12)
        assert math.exp(log_delta0(1.0, 50, 0.5, 1.5)) == pytest.approx(
            math.exp(-12.5), rel=1e-12
        )
        beta = math.exp(log_beta0(math.log(0.2), math.log(0.1)))
        assert abs(beta - 0.28) <= 1e-15
        for b in (0.9, 0.5, 0.1):
            assert eta0(2, 2, b) == pytest.approx(4 * b, rel=1e-12)
            assert eta0(2, 3, b) == pytest.approx(18 * b * b, rel=1e-12)


def test_02_general_k_enumerator_matches_closed_sum():
    with criterion(2, "general-K enumerator vs K=2 closed sum", 10.0):
        for m in range(2, 13):
            for beta in (0.9, 0.5, 0.1, 1e-3):
                general = eta0_enumerate(2, m, beta)
                closed = eta0_two_clusters(m, beta)
                assert general == pytest.approx(closed, rel=1e-10)


def test_03_majorization_and_tangency():
    with criterion(3, "majorization property on 1e4 pairs", 5.0):
        rng = np.random.default_rng(42)
        for spec in (PenaltySpec.h1(0.8), PenaltySpec.lp(0.5)):
            x0 = rng.uniform(1e-6, 6.0, size=10_000)
            x = rng.uniform(0.0, 10.0, size=10_000)
            gap = surrogate(x, x0, spec) - phi(x, spec)
            assert gap.min() >= -1e-10
            tangency = np.abs(surrogate(x0, x0, spec) - phi(x0, spec))
            assert tangency.max() <= 1e-10


def _random_instances(count, seed0=500):
    rng = np.random.default_rng(seed0)
    for i in range(count):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(3, 7))
        p = int(rng.integers(3, 12))
        spec = SyntheticSpec(
            K=k, M=m, P=p,
            centers=block_centers(k, p, float(rng.uniform(2.0, 6.0))),
            noise=("gaussian", float(rng.uniform(0.02, 0.3))),
            seed=seed0 + i,
        )
        yield i, spec, rng


def test_04_solver_monotonicity():
    with criterion(4, "solver monotonicity over 100 instances", 120.0):
        runs = 0
        for i, spec, rng in _random_instances(17):
            data, _ = generate(spec)
            for p0 in (1.0, 0.7, 0.4):
                masked = (
                    data if p0 >= 1.0 else apply_mask(data, MaskSpec(p0, seed=900 + i))
                )
                for pen in (
                    PenaltySpec.h1(float(rng.uniform(0.3, 2.0))),
                    PenaltySpec.lp(0.5),
                ):
                    lam = float(rng.uniform(0.05, 3.0))
                    cfg = SolverConfig(
                        lam=lam, penalty=pen, max_outer_iters=120,
                        objective_rel_tol=1e-12,
                    )
                    _, trace = mm_cluster(masked, cfg)
                    o = trace.objectives
                    for a, b in zip(o, o[1:]):
                        assert b <= a + 1e-10 * max(abs(a), 1.0)
                    runs += 1
        assert runs >= 100


def test_05_stationarity_and_gradient():
    with criterion(5, "stationarity residual and gradient check", 30.0):
        rng = np.random.default_rng(77)
        for i, spec, _ in _random_instances(20, seed0=700):
            data, _ = generate(spec)
            if rng.random() < 0.5:
                data = apply_mask(data, MaskSpec(p0=0.7, seed=i))
            penalty = PenaltySpec.h1(0.8) if i % 2 == 0 else PenaltySpec.lp(0.5)
            lam = float(rng.uniform(0.1, 2.0))
            rho = 1e-8

            u0 = mean_imputed(data)
            w = update_weights(u0, penalty)
            u = update_centroids(data, w, lam, rho)
            mask_f = data.mask.astype(float)
            obs = data.observed_values()
            cnt = data.mask.sum(axis=1)
            means = np.where(cnt > 0, obs.sum(axis=1) / np.maximum(cnt, 1), 0.0)
            deg = w.sum(axis=1)
            n = data.point_count
            lap = np.diag(deg) - w
            for p in range(data.feature_count):
                a = np.diag(mask_f[p]) + 2 * lam * lap + rho * np.eye(n)
                b = mask_f[p] * obs[p] + rho * means[p]
                assert np.linalg.norm(a @ u[p] - b) < 1e-8 * max(
                    np.linalg.norm(b), 1e-12
                )

            u_probe = u0 + 0.25 * rng.normal(size=u0.shape)
            grad = objective_gradient(data, u_probe, lam, penalty)
            scale = max(1.0, float(np.abs(u_probe).max()))
            h = 1e-6 * scale
            for _ in range(6):
                p = int(rng.integers(0, u_probe.shape[0]))
                j = int(rng.integers(0, u_probe.shape[1]))
                up, um = u_probe.copy(), u_probe.copy()
                up[p, j] += h
                um[p, j] -= h
                fd = (
                    objective(data, up, lam, penalty)
                    - objective(data, um, lam, penalty)
                ) / (2 * h)
                assert grad[p, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_06_oracle_matches_ground_truth_fully_observed():
    with criterion(6, "exhaustive solver recovers truth at kappa<1", 120.0):
        rng = np.random.default_rng(7)
        wins = 0
        for _ in range(50):
            k = int(rng.integers(2, 4))
            p = int(rng.integers(2, 6))
            sizes = rng.integers(2, 4, size=k)
            while sizes.sum() > 8:
                sizes[np.argmax(sizes)] -= 1
            centers = rng.normal(0, 1, (k, p))
            min_gap = min(
                np.linalg.norm(centers[a] - centers[b])
                for a in range(k)
                for b in range(a + 1, k)
            )
            centers *= 6.0 / max(min_gap, 1e-9)
            pts, labs = [], []
            for ki, m in enumerate(sizes):
                pts.append(centers[ki] + rng.uniform(-0.3, 0.3, (int(m), p)))
                labs += [ki] * int(m)
            data = ObservedDataset.full(np.vstack(pts).T)
            truth = Partition(np.array(labs))
            geom = estimate_geometry(data, truth)
            assert geom.kappa < 1.0
            result = l0_solve(data, geom.epsilon)
            if len(result.minimizers) == 1 and result.minimizers[0].same_clustering(
                truth
            ):
                wins += 1
        assert wins == 50


def test_07_monte_carlo_rates_within_bounds():
    with criterion(7, "Monte-Carlo escape/defeat rates within bounds", 300.0):
        data, truth, geom = gen_uniform_kappa(2, 3, 20, 0.5, seed=3)
        assert 0.4 <= geom.kappa <= 0.6
        for p0 in (0.6, 0.8):
            report = monte_carlo_bound_check(
                data, truth, p0=p0, trials=2000, seed=99
            )
            assert report.pair_feasible_ok, (p0, report)
            assert report.truth_defeat_ok, (p0, report)


def _count_strict_drops(values):
    return sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-12)


def test_08_fig3a_success_grid_shape():
    with criterion(8, "two-cluster success grid (kappa 0.39)", 900.0):
        spec = SuccessCurveSpec(
            p0_grid=tuple(np.round(np.arange(0.2, 1.01, 0.1), 10)),
            M_grid=(10, 50),
            lambda_grid=(2.0, 8.0, 32.0, 128.0),
            trials=20,
            base_seed=0,
            sigma=1.0,
        )

        def generator(m, seed):
            return gen_uniform_kappa(2, m, 50, 0.39, seed=seed)

        cells = success_curve(generator, spec)
        by_m = {
            m: [c.success_rate for c in cells if c.M == m] for m in (10, 50)
        }
        kappas = [c.kappa for c in cells]
        assert all(0.34 <= k <= 0.44 for k in kappas)
        # Full sampling succeeds always, for both cluster sizes.
        assert by_m[10][-1] == 1.0
        assert by_m[50][-1] == 1.0
        # Success is non-decreasing in p0 up to one grid inversion.
        assert _count_strict_drops(by_m[10]) <= 1
        assert _count_strict_drops(by_m[50]) <= 1
        # More points per cluster only helps, up to one inversion.
        worse = sum(1 for a, b in zip(by_m[50], by_m[10]) if a < b - 1e-12)
        assert worse <= 1


def _fig4_instance(center_scale, seed):
    spec = SyntheticSpec(
        K=3, M=200, P=50,
        centers=block_centers(3, 50, center_scale),
        noise=("gaussian", 0.1),
        seed=seed,
    )
    return generate(spec)


def _fig4_trial_succeeds(center_scale, p0, trial):
    data, truth = _fig4_instance(center_scale, seed=trial)
    masked = (
        data
        if p0 >= 1.0
        else apply_mask(data, MaskSpec(p0=p0, seed=31 * trial + 5))
    )
    for lam in (4.0, 1.0, 16.0):
        run = cluster_once(
            masked, lam=lam, sigma=2.0, max_outer_iters=100,
            objective_rel_tol=1e-8,
        )
        if exact_success(run.partition, truth):
            return True
    return False


def test_09_fig4_gaussian_recovery():
    with criterion(9, "three-cluster Gaussian recovery", 1200.0):
        for p0 in (1.0, 0.9, 0.8):
            wins = sum(_fig4_trial_succeeds(6.0, p0, t) for t in range(20))
            assert wins >= 19, f"dataset1 p0={p0}: {wins}/20"
        wins = sum(_fig4_trial_succeeds(3.0, 1.0, t) for t in range(20))
        assert wins >= 19, f"dataset2 p0=1.0: {wins}/20"


def test_10_wine_ari(wine_csv):
    with criterion(10, "wine clustering quality", 300.0):
        data, truth = wine_prepare(wine_csv)

        def best_ari(p0):
            masked = (
                data
                if p0 >= 1.0
                else apply_mask(data, MaskSpec(p0=p0, seed=17))
            )
            best = -2.0
            for lam in (3.0, 10.0, 30.0, 100.0):
                run = cluster_once(
                    masked, lam=lam, sigma=0.6, max_outer_iters=300,
                    objective_rel_tol=1e-8,
                )
                best = max(best, adjusted_rand_index(run.partition, truth))
            return best

        full = best_ari(1.0)
        assert full >= 0.8, full
        assert best_ari(0.9) >= best_ari(0.3) - 0.05


PRESET_INVOCATIONS = {
    "fig2": ["theory", "--preset", "fig2", "--p0-grid", "0:1:0.1"],
    "fig3a": [
        "simulate", "--preset", "fig3a", "--trials", "2",
        "--p0-grid", "0.5,1.0", "--m-grid", "6", "--lambda-grid", "8,32",
    ],
    "fig3c": [
        "simulate", "--preset", "fig3c", "--trials", "2",
        "--p0-grid", "1.0", "--m-grid", "6", "--lambda-grid", "8,32",
    ],
    "fig4-dataset1": [
        "simulate", "--preset", "fig4-dataset1", "--p0", "0.9", "--max-iters", "30",
    ],
    "fig4-dataset2": [
        "simulate", "--preset", "fig4-dataset2", "--p0", "1.0", "--max-iters", "30",
    ],
    "fig5-wine": ["wine", "--p0-grid", "1.0,0.5", "--lambda-grid", "10,30"],
}


def assert_cli_deterministic(tmp_path, preset, argv):
    """Run one preset twice in fresh directories; the files must match byte
    for byte."""
    dirs = []
    for attempt in ("a", "b"):
        workdir = tmp_path / f"{preset}-{attempt}"
        workdir.mkdir()
        cwd = os.getcwd()
        try:
            os.chdir(workdir)
            assert cli_main(argv) == 0, preset
        finally:
            os.chdir(cwd)
        dirs.append(workdir)
    files_a = sorted(os.listdir(dirs[0]))
    files_b = sorted(os.listdir(dirs[1]))
    assert files_a == files_b and files_a, preset
    for name in files_a:
        assert filecmp.cmp(
            dirs[0] / name, dirs[1] / name, shallow=False
        ), f"{preset}/{name} differs between runs"


def test_11_cli_determinism(tmp_path):
    # Every preset but Wine; those need no external data.
    with criterion(11, "CLI preset determinism", 600.0):
        for preset, argv in PRESET_INVOCATIONS.items():
            if preset != "fig5-wine":
                assert_cli_deterministic(tmp_path, preset, argv)


def test_11_cli_determinism_wine(tmp_path, wine_csv):
    with criterion(11, "CLI preset determinism (Wine)", 600.0):
        os.environ["FUSECLUSTER_DATA_DIR"] = os.path.dirname(wine_csv)
        try:
            assert_cli_deterministic(
                tmp_path, "fig5-wine", PRESET_INVOCATIONS["fig5-wine"]
            )
        finally:
            os.environ.pop("FUSECLUSTER_DATA_DIR", None)
