import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecluster.datagen import MaskSpec, apply_mask, gen_uniform_kappa
from fusecluster.model import ObservedDataset, Partition, estimate_geometry
from fusecluster.oracle import (
    group_feasible,
    l0_solve,
    monte_carlo_bound_check,
)


def far_pairs_instance():
    values = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
    return ObservedDataset.full(values)


def reference_l0_solve(data, epsilon):
    """The earlier per-node search: each open block keeps its per-feature
    minimum and maximum, and a point joins when the span stays within
    epsilon.  Returns (min_cost, feasible count, minimizer label lists)."""
    n = data.point_count
    values, mask = data.values, data.mask
    labels = np.zeros(n, dtype=np.int64)
    block_mins, block_maxs, block_sizes = [], [], []
    state = {"best_cost": n * n + 1, "minimizers": [], "feasible_count": 0}

    def visit_leaf():
        state["feasible_count"] += 1
        cost = n * n - sum(s * s for s in block_sizes)
        if cost < state["best_cost"]:
            state["best_cost"] = cost
            state["minimizers"] = [labels.copy()]
        elif cost == state["best_cost"]:
            state["minimizers"].append(labels.copy())

    def dfs(i):
        if i == n:
            visit_leaf()
            return
        x = values[:, i]
        m = mask[:, i]
        for b in range(len(block_mins)):
            new_min = np.where(m, np.minimum(block_mins[b], x), block_mins[b])
            new_max = np.where(m, np.maximum(block_maxs[b], x), block_maxs[b])
            if np.all(new_max - new_min <= epsilon):
                old_min, old_max = block_mins[b], block_maxs[b]
                block_mins[b], block_maxs[b] = new_min, new_max
                block_sizes[b] += 1
                labels[i] = b
                dfs(i + 1)
                block_mins[b], block_maxs[b] = old_min, old_max
                block_sizes[b] -= 1
        block_mins.append(np.where(m, x, np.inf))
        block_maxs.append(np.where(m, x, -np.inf))
        block_sizes.append(1)
        labels[i] = len(block_mins) - 1
        dfs(i + 1)
        block_mins.pop()
        block_maxs.pop()
        block_sizes.pop()

    dfs(0)
    minimizers = [Partition(lab).canonical().labels.tolist() for lab in state["minimizers"]]
    return state["best_cost"], state["feasible_count"], minimizers


@st.composite
def masked_grid_instances(draw):
    """Up to 8 points and 5 features on a 0.25 grid, so that pairs often sit
    exactly epsilon apart; unobserved entries hold NaN, and a feature may go
    unobserved by every point."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 5))
    steps = draw(st.lists(st.integers(-6, 6), min_size=p * n, max_size=p * n))
    observed = draw(st.lists(st.booleans(), min_size=p * n, max_size=p * n))
    mask = np.array(observed).reshape(p, n)
    blank = draw(st.lists(st.booleans(), min_size=p, max_size=p))
    mask[np.array(blank)] = False
    values = np.where(mask, 0.25 * np.array(steps, dtype=float).reshape(p, n), np.nan)
    epsilon = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.3]))
    return ObservedDataset(values, mask), epsilon


class TestGroupFeasible:
    def test_singleton_always_feasible(self):
        data = far_pairs_instance()
        assert group_feasible(data, [2], 0.0)

    def test_pair_at_boundary(self):
        data = ObservedDataset.full(np.array([[0.0, 1.0]]))
        assert group_feasible(data, [0, 1], 1.0)
        assert not group_feasible(data, [0, 1], 0.999)

    def test_disjoint_observations_always_feasible(self):
        values = np.array([[0.0, 100.0], [50.0, 0.0]])
        mask = np.array([[True, False], [False, True]])
        data = ObservedDataset(values, mask)
        assert group_feasible(data, [0, 1], 0.001)

    def test_feasibility_monotone_under_subsets(self, rng):
        values = rng.normal(size=(4, 6))
        mask = rng.random((4, 6)) < 0.7
        data = ObservedDataset(values, mask)
        eps = 1.5
        full = list(range(6))
        if group_feasible(data, full, eps):
            for k in range(1, 6):
                assert group_feasible(data, full[:k], eps)

    def test_removing_observations_preserves_feasibility(self, rng):
        values = rng.normal(size=(5, 4))
        mask = np.ones((5, 4), dtype=bool)
        data = ObservedDataset(values, mask)
        eps = float(np.ptp(values, axis=1).max())
        assert group_feasible(data, [0, 1, 2, 3], eps)
        thin = mask.copy()
        thin[rng.random((5, 4)) < 0.5] = False
        assert group_feasible(ObservedDataset(values, thin), [0, 1, 2, 3], eps)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group_feasible(far_pairs_instance(), [], 1.0)


class TestL0Solve:
    def test_two_coincident_pairs(self):
        result = l0_solve(far_pairs_instance(), epsilon=0.1)
        assert len(result.minimizers) == 1
        assert result.minimizers[0].labels.tolist() == [0, 0, 1, 1]
        assert result.min_cost == 8  # 16 - (4 + 4)
        assert result.feasible_partition_count == 4

    def test_all_identical_points(self):
        data = ObservedDataset.full(np.zeros((2, 4)))
        result = l0_solve(data, epsilon=0.0)
        assert len(result.minimizers) == 1
        assert result.minimizers[0].cluster_count == 1
        assert result.min_cost == 0

    def test_enumeration_bound(self):
        data = ObservedDataset.full(np.zeros((1, 13)))
        with pytest.raises(ValueError, match="enumeration bound"):
            l0_solve(data, epsilon=1.0)

    def test_min_cost_invariant_to_permutation(self, rng):
        values = rng.normal(size=(3, 6))
        values[:, 3:] += 5.0
        data = ObservedDataset.full(values)
        r1 = l0_solve(data, epsilon=1.0)
        perm = rng.permutation(6)
        r2 = l0_solve(ObservedDataset.full(values[:, perm]), epsilon=1.0)
        assert r1.min_cost == r2.min_cost
        assert r1.feasible_partition_count == r2.feasible_partition_count

    @settings(max_examples=80, deadline=None)
    @given(masked_grid_instances())
    def test_matches_reference_search(self, instance):
        data, epsilon = instance
        result = l0_solve(data, epsilon)
        best_cost, feasible_count, minimizers = reference_l0_solve(data, epsilon)
        assert result.min_cost == best_cost
        assert result.feasible_partition_count == feasible_count
        assert [m.labels.tolist() for m in result.minimizers] == minimizers
        for m in result.minimizers:
            assert m.labels.tolist() == m.canonical().labels.tolist()

    def test_feasible_count_is_bell_number_when_everything_merges(self):
        data = ObservedDataset.full(np.zeros((1, 5)))
        assert l0_solve(data, epsilon=0.0).feasible_partition_count == 52

    def test_ground_truth_unique_when_fully_observed_and_kappa_small(self, rng):
        # Guaranteed-recovery consequence on a handful of instances; the
        # full 50-instance sweep lives in the acceptance suite.
        for seed in range(5):
            data, truth, geom = gen_uniform_kappa(2, 3, 4, 0.6, seed=seed)
            assert geom.kappa < 1
            result = l0_solve(data, geom.epsilon)
            assert len(result.minimizers) == 1
            assert result.minimizers[0].same_clustering(truth)

    def test_intra_cluster_pairs_always_feasible_under_masking(self, rng):
        data, truth, geom = gen_uniform_kappa(2, 4, 6, 0.7, seed=3)
        for trial in range(20):
            masked = apply_mask(data, MaskSpec(p0=0.5, seed=trial))
            labels = truth.labels
            for i in range(8):
                for j in range(i + 1, 8):
                    if labels[i] == labels[j]:
                        assert group_feasible(masked, [i, j], geom.epsilon)


class TestMonteCarloBoundCheck:
    def test_full_observation_is_deterministic_success(self):
        data, truth, geom = gen_uniform_kappa(2, 3, 8, 0.5, seed=7)
        report = monte_carlo_bound_check(data, truth, p0=1.0, trials=20, seed=0)
        assert report.pair_feasible_rate == 0.0
        assert report.truth_defeat_rate == 0.0
        assert report.all_ok

    def test_zero_p0_saturates_gamma_bound(self):
        data, truth, geom = gen_uniform_kappa(2, 3, 6, 0.5, seed=7)
        report = monte_carlo_bound_check(data, truth, p0=0.0, trials=10, seed=0)
        assert report.common_obs_deficit_rate == 1.0
        assert report.gamma0 == 1.0
        assert report.common_obs_deficit_ok

    def test_bounds_hold_on_masked_trials(self):
        data, truth, geom = gen_uniform_kappa(2, 3, 20, 0.5, seed=3)
        report = monte_carlo_bound_check(data, truth, p0=0.7, trials=150, seed=11)
        assert report.all_ok

    def test_requires_equal_cluster_sizes(self):
        values = np.array([[0.0, 0.1, 5.0]])
        data = ObservedDataset.full(values)
        truth = Partition(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="equal cluster sizes"):
            monte_carlo_bound_check(data, truth, p0=0.5, trials=5, seed=0)

    def test_requires_kappa_below_one(self):
        data, truth, _ = gen_uniform_kappa(2, 3, 6, 1.3, seed=2)
        with pytest.raises(ValueError, match="kappa"):
            monte_carlo_bound_check(data, truth, p0=0.5, trials=5, seed=0)
