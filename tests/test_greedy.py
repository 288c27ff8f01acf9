"""Exact-influence greedy builder: traces, termination, telescoping."""

import numpy as np
import pytest

from greedytree import greedy
from greedytree.core import (
    CountingOracle,
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    TreeOracle,
    TruthTableOracle,
    size,
)
from greedytree.exact import EnumerationLimitError, _pairs_fit, cost, f_completion, tree_error
from greedytree.greedy import build_topdown_exact, size_bound_log
from greedytree.targets import generate_random_tree, generate_truth_table
from greedytree.verify import _replay_prefixes, generate_instance

UNIFORM2 = ProductDistribution([0.5, 0.5])
DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))
PARITY2 = DecisionTree(Internal(0, Internal(1, Leaf(-1), Leaf(1)), Internal(1, Leaf(1), Leaf(-1))))


class TestTermination:
    def test_constant_target_zero_splits(self):
        result = build_topdown_exact(DecisionTree(Leaf(-1)), UNIFORM2, epsilon=0.5)
        assert result.terminated
        assert result.splits == 0
        assert result.tree == DecisionTree(Leaf(-1))
        assert result.final_error == 0.0

    def test_dictator_one_split(self):
        result = build_topdown_exact(DICTATOR, UNIFORM2, epsilon=0.1)
        assert result.terminated
        assert result.splits == 1
        assert result.steps[0].coord == 0
        assert size(result.tree) == 2
        assert tree_error(result.tree, TreeOracle(DICTATOR, 2), UNIFORM2) == 0.0

    def test_parity_needs_three_splits(self):
        # no single split reduces the error below 1/2; the cost reaches 0
        # only once both branches are fully expanded
        result = build_topdown_exact(PARITY2, UNIFORM2, epsilon=0.01)
        assert result.terminated
        assert result.splits == 3
        assert size(result.tree) == 4
        assert result.final_error == 0.0
        assert [s.completion_error for s in result.steps] == [0.5, 0.5, 0.25]

    def test_error_met_at_returned_tree(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            target = generate_random_tree(n, min(n, 4), rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            result = build_topdown_exact(target, dist, epsilon=0.2)
            assert result.terminated
            exact = tree_error(result.tree, TreeOracle(target, n), dist)
            assert exact <= 0.2 + 1e-12
            assert exact == pytest.approx(result.final_error, abs=1e-12)

    @pytest.mark.parametrize("seed", [57, 191])
    def test_final_error_never_negative(self, seed):
        # an all-+1 region's positive mass can round just above 1; the
        # error of its leaf is clamped at 0 rather than going to -2.2e-16
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        table = np.where(rng.random(1 << n) < 0.85, 1, -1)
        dist = ProductDistribution(rng.uniform(0.05, 0.95, n))
        result = build_topdown_exact(TruthTableOracle(table), dist, epsilon=0.01)
        assert result.final_error >= 0.0
        assert all(step.completion_error >= 0.0 for step in result.steps)

    def test_max_splits_exhaustion_flagged(self):
        result = build_topdown_exact(PARITY2, UNIFORM2, epsilon=0.01, max_splits=1)
        assert not result.terminated
        assert result.splits == 1
        assert result.final_error > 0.01

    def test_none_is_no_cap(self):
        # parity on 3 coordinates takes all 2^3 - 1 splits a tree over them has
        parity3 = TruthTableOracle(np.array([1, -1, -1, 1, -1, 1, 1, -1]))
        dist = ProductDistribution([0.5] * 3)
        runs = [build_topdown_exact(parity3, dist, 0.01, max_splits=m) for m in (None, 2**3)]
        assert runs[0].terminated and runs[0].splits == 7
        assert repr(runs[0]) == repr(runs[1])

    def test_default_cap_is_structural_not_the_size_bound(self, monkeypatch):
        # a size bound of e^0 = 1 would stop parity after one split; the
        # default sets no cap, so the run still reaches the error target
        monkeypatch.setattr(greedy, "size_bound_log", lambda *args: 0.0)
        result = build_topdown_exact(PARITY2, UNIFORM2, epsilon=0.01)
        assert result.terminated
        assert result.splits == 3


class TestTrace:
    def test_leaf_count_equals_step_index(self):
        result = build_topdown_exact(PARITY2, UNIFORM2, epsilon=0.01)
        for step in result.steps:
            assert step.leaf_count == step.step

    def test_cost_telescopes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            target = generate_random_tree(n, min(n, 4), rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            result = build_topdown_exact(target, dist, epsilon=0.05)
            for step in result.steps:
                assert step.cost_after == pytest.approx(step.cost_before - step.score, abs=1e-10)
            for earlier, later in zip(result.steps, result.steps[1:]):
                assert later.cost_before == pytest.approx(earlier.cost_after, abs=1e-12)

    def test_cost_nonincreasing_and_matches_recomputation(self):
        target = generate_random_tree(5, 4, np.random.default_rng(8))
        dist = ProductDistribution([0.3] * 5)
        result = build_topdown_exact(target, dist, epsilon=0.05)
        oracle = TreeOracle(target, 5)
        prefixes = list(_replay_prefixes(result))
        for step, bare in zip(result.steps, prefixes[:-1]):
            assert cost(bare, oracle, dist) == pytest.approx(step.cost_before, abs=1e-10)
            assert step.cost_after <= step.cost_before + 1e-12

    def test_completion_error_matches_recomputation(self):
        target = generate_random_tree(4, 3, np.random.default_rng(21))
        dist = ProductDistribution([0.6, 0.2, 0.5, 0.8])
        result = build_topdown_exact(target, dist, epsilon=0.05)
        oracle = TreeOracle(target, 4)
        prefixes = list(_replay_prefixes(result))
        for step, bare in zip(result.steps, prefixes[:-1]):
            err = tree_error(f_completion(bare, oracle, dist), oracle, dist)
            assert err == pytest.approx(step.completion_error, abs=1e-12)

    def test_tie_breaks_to_lowest_leaf_id(self):
        # after the first parity split both children tie at score 1/4
        result = build_topdown_exact(PARITY2, UNIFORM2, epsilon=0.01)
        assert result.steps[1].leaf_id == 1


class TestCompletionLabels:
    def test_labels_equal_the_reference_completion(self):
        # the builder labels its leaves from the positive mass it already
        # holds; f_completion enumerates every leaf again.  Cases: the
        # acceptance suite's lemma corpus, the uniform dictator (positive
        # mass 1/2 exactly at the root, so the tie goes to +1) and a parity run
        # cut after one split (both leaves tie)
        cases = []
        for k in range(200):
            inst = generate_instance(
                20250810 * 1_000_003 + k, max_n=6, kinds=("tree", "balanced", "path")
            )
            cases.append((inst.target_tree, inst.dist, 0.1, None))
        cases += [(DICTATOR, UNIFORM2, 0.5, None), (PARITY2, UNIFORM2, 0.1, 1)]
        for target, dist, eps, max_splits in cases:
            result = build_topdown_exact(target, dist, epsilon=eps, max_splits=max_splits)
            assert result.tree == f_completion(result.bare, TreeOracle(target, dist.n), dist)
        assert build_topdown_exact(DICTATOR, UNIFORM2, epsilon=0.5).tree == DecisionTree(Leaf(1))


class TestSizeBoundLog:
    def test_dictator_example(self):
        # size 2 against bound (e * 1 / 0.1)^1 = 27.18...
        assert np.log(2) <= size_bound_log(0.1, 1, 1.0)
        assert size_bound_log(0.1, 1, 1.0) == pytest.approx(np.log(np.e / 0.1))

    def test_flat_branch_dominates_when_eps_depth_large(self):
        # eps * depth >= avg_depth makes the exponential branch the max
        assert size_bound_log(0.9, 3, 1.5) == pytest.approx(1.5 * 3)

    def test_oracle_target_accepts_epsilon_only(self):
        oracle = TreeOracle(DICTATOR, 2)
        result = build_topdown_exact(oracle, UNIFORM2, epsilon=0.25)
        assert result.terminated


class TestLabelQueries:
    def test_each_point_is_labeled_once_per_build(self):
        # tables and trees past the leaf-pair rule label every point once;
        # trees within it are scored from their leaves and label none
        rng = np.random.default_rng(17)
        splits, paths = [], set()
        for k in range(12):
            n = int(rng.integers(2, 11))
            if k % 3:
                inner = TreeOracle(generate_random_tree(n, min(n, 5), rng), n)
            else:
                inner = generate_truth_table(n, rng)
            oracle = CountingOracle(inner)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            result = build_topdown_exact(oracle, dist, epsilon=0.02)
            pairs = _pairs_fit(inner.compiled_leaves(), n)
            if pairs:
                assert oracle.queries == 0
                assert inner._table is None
            else:
                assert oracle.queries == 1 << n
            paths.add((isinstance(inner, TreeOracle), pairs))
            splits.append(result.splits)
        assert max(splits) >= 8
        assert paths == {(False, False), (True, False), (True, True)}

    def test_enumeration_cap_raises_before_any_label_query(self, monkeypatch):
        monkeypatch.setattr("greedytree.exact.MAX_FREE_COORDS", 4)
        oracle = CountingOracle(TreeOracle(DICTATOR, 5))
        with pytest.raises(EnumerationLimitError):
            build_topdown_exact(oracle, ProductDistribution([0.5] * 5), epsilon=0.1)
        assert oracle.queries == 0


class TestValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            build_topdown_exact(DICTATOR, UNIFORM2, epsilon=0.0)
        with pytest.raises(ValueError):
            build_topdown_exact(DICTATOR, UNIFORM2, epsilon=1.5)

    @pytest.mark.parametrize("kind", ["tree", "counting", "table"])
    def test_dimension_mismatch_refused_before_any_work(self, kind):
        tree = TreeOracle(DICTATOR, 3)
        oracle = {
            "tree": tree,
            "counting": CountingOracle(tree),
            "table": generate_truth_table(3, np.random.default_rng(0)),
        }[kind]
        for dist in (UNIFORM2, ProductDistribution([0.5] * 4)):
            with pytest.raises(ValueError, match=f"oracle has n=3, distribution has n={dist.n}"):
                build_topdown_exact(oracle, dist, epsilon=0.1)
        assert tree._leaves is None and tree._table is None
        assert getattr(oracle, "queries", 0) == 0

    def test_negative_max_splits_refused(self):
        with pytest.raises(ValueError, match="max_splits"):
            build_topdown_exact(DICTATOR, UNIFORM2, epsilon=0.1, max_splits=-1)
        assert build_topdown_exact(DICTATOR, UNIFORM2, epsilon=0.1, max_splits=0).splits == 0
