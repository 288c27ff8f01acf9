"""Schedules, pair sampling, the split-score estimator, and the sample-driven builder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedytree import sampling
from greedytree.core import (
    BareLeaf,
    BareTree,
    CountingOracle,
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    TreeOracle,
    TruthTableOracle,
    label_leaves,
    leaf_paths,
    route_codes,
    size,
    split_leaf,
    tree_variables,
)
from greedytree.exact import tree_error
from greedytree.sampling import (
    PairBatch,
    build_topdown_practical,
    draw_pair_batch,
    error_schedule,
    labeling_schedule,
    pair_hits,
    pair_schedule,
)
from greedytree.targets import (
    generate_balanced_target,
    generate_path_target,
    generate_random_tree,
)

UNIFORM2 = ProductDistribution([0.5, 0.5])
DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))


class TestSchedules:
    def test_pair_schedule_value(self):
        # ceil(96 * ln 160) at j=1, delta=0.1, eps=0.5, n=2
        assert pair_schedule(1, 0.1, 0.5, 2) == 488
        assert pair_schedule(1, 0.1, 0.5, 2) == math.ceil(96 * math.log(160))

    def test_labeling_schedule_value(self):
        assert labeling_schedule(1, 0.5, 0.1) == 3309
        assert labeling_schedule(1, 0.5, 0.1) == math.ceil(512 * (2 * math.log(2) + math.log(160)))

    def test_error_schedule_values(self):
        assert error_schedule(1, 0.5, 0.1) == 650
        assert error_schedule(2, 0.5, 0.1) == 828

    def test_pair_schedule_doubles_when_eps_halves(self):
        # the underlying expression is linear in 1/eps
        for j, delta, eps, n in [(1, 0.1, 0.5, 2), (3, 0.2, 0.3, 5)]:
            raw = 12 * (j + 1) * n / eps * math.log(4 * j * j * (j + 1) * n / delta)
            assert pair_schedule(j, delta, eps, n) == math.ceil(raw)
            assert pair_schedule(j, delta, eps / 2, n) == math.ceil(2 * raw)

    def test_labeling_schedule_quadruples_when_eps_halves(self):
        for j, eps, delta in [(1, 0.5, 0.1), (4, 0.2, 0.05)]:
            raw = 128 * ((j + 1) * math.log(2) + math.log(16 * j * j / delta)) / eps**2
            assert labeling_schedule(j, eps / 2, delta) == math.ceil(4 * raw)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 200),
        st.floats(0.01, 0.9),
        st.floats(0.01, 0.9),
        st.integers(1, 30),
    )
    def test_schedules_nondecreasing_and_positive(self, j, eps, delta, n):
        assert 0 < pair_schedule(j, delta, eps, n) <= pair_schedule(j + 1, delta, eps, n)
        assert 0 < labeling_schedule(j, eps, delta) <= labeling_schedule(j + 1, eps, delta)
        assert 0 < error_schedule(j, eps, delta) <= error_schedule(j + 1, eps, delta)

    def test_labeling_schedule_meets_excess_error_hypothesis(self):
        # with l = j+1 leaves, sqrt(2(l ln2 + ln(16 j^2/delta)) / M) <= eps/8
        for j in (1, 2, 5, 10, 40):
            for eps in (0.5, 0.15, 0.05):
                for delta in (0.1, 0.01):
                    m = labeling_schedule(j, eps, delta)
                    lhs = math.sqrt(
                        2 * ((j + 1) * math.log(2) + math.log(16 * j * j / delta)) / m
                    )
                    assert lhs <= eps / 8 + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pair_schedule(0, 0.1, 0.5, 2)
        with pytest.raises(ValueError):
            labeling_schedule(1, 1.5, 0.1)
        with pytest.raises(ValueError):
            error_schedule(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            pair_schedule(1, 0.1, 0.5, 0)


def _random_bare(n: int, rng: np.random.Generator, splits: int) -> tuple[BareTree, dict]:
    """A bare tree of up to ``splits`` random splits, with each leaf's path."""
    bare, paths, next_id = BareTree(BareLeaf(0)), {0: frozenset()}, 1
    for _ in range(splits):
        leaf_id = int(rng.choice(sorted(paths)))
        free = [i for i in range(n) if i not in paths[leaf_id]]
        if not free:
            continue
        coord = int(rng.choice(free))
        bare = split_leaf(bare, leaf_id, coord, next_id, next_id + 1)
        path = paths.pop(leaf_id) | {coord}
        paths[next_id] = paths[next_id + 1] = path
        next_id += 2
    return bare, paths


def _hits_labeling_every_pair(oracle, dist, i, rng, count, bare):
    """Reference estimator: label both endpoints of every drawn pair and
    count a pair at a leaf when both endpoints reach it and disagree."""
    x = dist.draw_codes(rng, count)
    redrawn = (rng.random(count) < dist.biases[i]).astype(np.uint64)
    alt = (x & ~np.uint64(1 << i)) | (redrawn << np.uint64(i))
    disagree = oracle.label_codes(x) != oracle.label_codes(alt)
    x, alt = x[disagree], alt[disagree]
    x_leaf, alt_leaf = route_codes(bare, x), route_codes(bare, alt)
    both = x_leaf == alt_leaf
    return {int(leaf): x[both & (x_leaf == leaf)] for leaf in np.unique(x_leaf[both])}


def _estimate(batch, leaf_id, bare, paths) -> float:
    return len(pair_hits(batch, bare, paths).get(leaf_id, ())) / batch.drawn


ROOT = BareTree(BareLeaf(0))
ROOT_PATHS = {0: frozenset()}


class TestDrawPair:
    def test_endpoints_differ_at_most_at_i(self):
        # every labeled pair differs exactly at bit i, and both labels are the oracle's
        oracle = TreeOracle(DICTATOR, 2)
        for i in (0, 1):
            batch = draw_pair_batch(oracle, UNIFORM2, i, np.random.default_rng(i), 500)
            assert len(batch) > 0 and batch.drawn == 500 and batch.coord == i
            assert np.array_equal(batch.x_labels, oracle.label_codes(batch.x_codes))
            flipped = batch.x_codes ^ np.uint64(1 << i)
            assert np.array_equal(batch.alt_labels, oracle.label_codes(flipped))

    def test_disagreement_rate_biased(self):
        # the redrawn bit differs from the original with probability 2 p (1-p)
        dist = ProductDistribution([0.3, 0.5])
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, dist, 0, np.random.default_rng(1), 100_000)
        assert abs(len(batch) / batch.drawn - 0.42) < 0.01

    def test_disagreement_rate_uniform(self):
        dist = ProductDistribution([0.5, 0.5])
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, dist, 0, np.random.default_rng(2), 100_000)
        assert abs(len(batch) / batch.drawn - 0.5) < 0.01

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.1])
    @pytest.mark.parametrize(
        "n,kind", [(n, "tree") for n in (1, 5, 12, 25, 64)] + [(n, "table") for n in (1, 5, 12)]
    )
    def test_hits_equal_labeling_every_pair(self, n, kind, p):
        # labeling only the flipped pairs leaves the hit arrays and the
        # random stream exactly as labeling every pair of the same draw;
        # tree targets above n = 24 label by routing instead of a table
        rng = np.random.default_rng([n, int(p * 10)])
        target = generate_balanced_target(min(n, 4), n, rng)
        oracle = TreeOracle(target, n)
        if kind == "table":
            oracle = TruthTableOracle(oracle.label_codes(np.arange(1 << n, dtype=np.uint64)))
        coords = tree_variables(target) | {0, n - 1}
        dist = ProductDistribution([p] * n)
        bare, paths = _random_bare(n, rng, min(n - 1, 3))
        total_hits = 0
        for i in sorted(coords):
            ours, ref = np.random.default_rng([7, i]), np.random.default_rng([7, i])
            batch = draw_pair_batch(oracle, dist, i, ours, 3000)
            hits = pair_hits(batch, bare, paths)
            expected = _hits_labeling_every_pair(oracle, dist, i, ref, 3000, bare)
            assert sorted(hits) == sorted(expected)
            for leaf_id, codes in expected.items():
                assert np.array_equal(hits[leaf_id], codes)
            assert ours.random() == ref.random()
            total_hits += sum(map(len, hits.values()))
        assert total_hits > 0


class TestScoreEstimate:
    def test_all_labels_agree_gives_zero(self):
        codes = np.arange(8, dtype=np.uint64)
        ones = np.ones(8, dtype=np.int8)
        batch = PairBatch(0, codes, ones, ones, 8)
        assert pair_hits(batch, ROOT, ROOT_PATHS) == {}
        assert _estimate(batch, 0, ROOT, ROOT_PATHS) == 0.0

    def test_root_only_tree_counts_disagreements(self):
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, UNIFORM2, 0, np.random.default_rng(3), 4000)
        disagree = int(np.count_nonzero(batch.x_labels != batch.alt_labels))
        assert _estimate(batch, 0, ROOT, ROOT_PATHS) == pytest.approx(disagree / 4000)

    def test_unbiased_for_dictator_root(self):
        # mean over 200 fresh pools of 1000 pairs within 3 standard errors of 1/2
        oracle = TreeOracle(DICTATOR, 2)
        rng = np.random.default_rng(4)
        estimates = [
            _estimate(draw_pair_batch(oracle, UNIFORM2, 0, rng, 1000), 0, ROOT, ROOT_PATHS)
            for _ in range(200)
        ]
        stderr = np.std(estimates, ddof=1) / math.sqrt(200)
        assert abs(np.mean(estimates) - 0.5) <= 3 * stderr

    def test_pair_crossing_a_split_never_fires(self):
        # pairs redrawn on the split coordinate reach opposite children and
        # cannot contribute to either child's estimate
        bare = split_leaf(ROOT, 0, 0, 1, 2)
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, UNIFORM2, 0, np.random.default_rng(5), 5000)
        assert np.any(batch.x_labels != batch.alt_labels)
        assert pair_hits(batch, bare, {1: {0}, 2: {0}}) == {}

    def test_off_path_coordinate_routes_with_x(self):
        # when the redrawn coordinate is not queried, x reaches the leaf
        # iff the redrawn point does: both-reach reduces to x-reach
        bare = split_leaf(ROOT, 0, 1, 1, 2)
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, UNIFORM2, 0, np.random.default_rng(6), 5000)
        hits = pair_hits(batch, bare, {1: {1}, 2: {1}})
        assert sorted(hits) == [1, 2]
        for leaf, codes in hits.items():
            assert np.all(route_codes(bare, codes) == leaf)
            assert np.all(route_codes(bare, codes ^ np.uint64(1)) == leaf)
            at_leaf = route_codes(bare, batch.x_codes) == leaf
            assert len(codes) == np.count_nonzero(at_leaf & (batch.x_labels != batch.alt_labels))


class TestPracticalBuilder:
    def test_constant_target_terminates_immediately(self):
        oracle = TreeOracle(DecisionTree(Leaf(1)), 2)
        result = build_topdown_practical(oracle, UNIFORM2, 0.2, 0.1, seed=0)
        assert result.terminated
        assert size(result.tree) == 1
        assert result.tree == DecisionTree(Leaf(1))
        assert result.steps[0].mismatches == 0
        assert len(result.steps) == 1

    def test_dictator_recovery_across_seeds(self):
        oracle = TreeOracle(DICTATOR, 2)
        good = 0
        small = 0
        for seed in range(6):
            result = build_topdown_practical(oracle, UNIFORM2, 0.15, 0.1, seed=seed)
            err = tree_error(result.tree, oracle, UNIFORM2)
            good += int(err <= 0.15)
            small += int(size(result.tree) <= 4)
        assert good >= 5
        assert small >= 5

    def test_reproducible_given_seed(self):
        oracle = TreeOracle(DICTATOR, 2)
        a = build_topdown_practical(oracle, UNIFORM2, 0.2, 0.1, seed=42)
        b = build_topdown_practical(oracle, UNIFORM2, 0.2, 0.1, seed=42)
        assert a.tree == b.tree
        assert a.usage == b.usage
        assert a.steps == b.steps

    def test_label_queries_match_schedules_exactly(self, monkeypatch):
        # draws telescope to the step-J floors; label queries are the
        # labeling and stopping pools plus both endpoints of each labeled pair
        labeled = []

        def recording(*args):
            batch = draw_pair_batch(*args)
            labeled.append(len(batch))
            return batch

        monkeypatch.setattr(sampling, "draw_pair_batch", recording)
        for p in (0.5, 0.1):
            labeled.clear()
            oracle = CountingOracle(TreeOracle(DICTATOR, 2))
            result = build_topdown_practical(oracle, ProductDistribution([p, p]), 0.2, 0.1, seed=3)
            j = result.steps[-1].step
            points = labeling_schedule(j, 0.2, 0.1) + error_schedule(j, 0.2, 0.1)
            drawn_pairs = 2 * pair_schedule(j, 0.1, 0.2, 2)
            assert result.random_draws == points + 2 * drawn_pairs
            assert result.label_queries == oracle.queries == points + 2 * sum(labeled)
            assert 0 < sum(labeled) < drawn_pairs

    def test_usage_rows_nondecreasing(self):
        oracle = TreeOracle(DICTATOR, 2)
        result = build_topdown_practical(oracle, UNIFORM2, 0.15, 0.1, seed=9)
        for a, b in zip(result.usage, result.usage[1:]):
            assert b.pair_floor >= a.pair_floor
            assert b.label_queries > a.label_queries
            assert b.leaves == a.leaves + 1

    def test_max_splits_flagged(self):
        parity = DecisionTree(
            Internal(0, Internal(1, Leaf(-1), Leaf(1)), Internal(1, Leaf(1), Leaf(-1)))
        )
        oracle = TreeOracle(parity, 2)
        result = build_topdown_practical(oracle, UNIFORM2, 0.05, 0.1, seed=1, max_splits=1)
        assert not result.terminated
        assert result.stop_reason == "max_splits"
        assert result.splits == 1

    def test_returned_error_small_on_biased_targets(self):
        rng = np.random.default_rng(30)
        for seed in range(4):
            n = 4
            target = generate_random_tree(n, 3, rng)
            dist = ProductDistribution([0.3] * n)
            oracle = TreeOracle(target, n)
            result = build_topdown_practical(oracle, dist, 0.2, 0.1, seed=seed)
            assert result.terminated
            assert tree_error(result.tree, oracle, dist) <= 0.2

    def test_validation(self):
        oracle = TreeOracle(DICTATOR, 2)
        with pytest.raises(ValueError):
            build_topdown_practical(oracle, UNIFORM2, 0.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            build_topdown_practical(oracle, UNIFORM2, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            build_topdown_practical(oracle, UNIFORM2, 0.1, 0.1, seed=-1)
        with pytest.raises(ValueError):
            build_topdown_practical(oracle, ProductDistribution([0.5]), 0.1, 0.1, seed=0)

    def test_leaf_counts_are_array_lengths(self):
        # a tie in the labeling pool, even an empty one, labels the leaf +1
        codes = np.arange(3, dtype=np.uint64)
        pools = {(sampling._LL_STREAM, 1): codes[:2], (sampling._LL_STREAM, -1): codes[1:],
                 (sampling._EE_STREAM, 1): codes, (sampling._EE_STREAM, -1): codes[:1]}
        leaf = sampling._LeafState(frozenset(), pools)
        assert (leaf.label, leaf.mismatches, leaf.error_samples) == (1, 1, 4)
        pools[sampling._LL_STREAM, 1] = pools[sampling._LL_STREAM, -1] = codes[:0]
        assert leaf.label == 1
        pools[sampling._LL_STREAM, -1] = codes[:1]
        assert (leaf.label, leaf.mismatches) == (-1, 3)

    def test_negative_max_splits_refused(self):
        oracle = TreeOracle(DICTATOR, 2)
        with pytest.raises(ValueError, match="max_splits"):
            build_topdown_practical(oracle, UNIFORM2, 0.1, 0.1, seed=0, max_splits=-1)
        result = build_topdown_practical(oracle, UNIFORM2, 0.1, 0.1, seed=0, max_splits=0)
        assert result.splits == 0 and result.stop_reason == "max_splits"


def _redraw(seed: int, stream: int, schedule, steps: int, *key: int) -> list:
    """The increments of ``schedule`` for steps 1..``steps``, each with the
    builder's stream for that step."""
    floors = [0] + [schedule(j) for j in range(1, steps + 1)]
    return [
        (sampling._stream(seed, stream, j, *key), floors[j] - floors[j - 1])
        for j in range(1, steps + 1)
    ]


class TestPoolsEqualRoutingFromScratch:
    """The builder's partitioned pools count what routing every sample from
    the root of the current tree counts."""

    @pytest.mark.parametrize(
        "n,p,family,depth,max_splits",
        [(5, 0.3, "random", 3, None), (6, 0.5, "balanced", 2, None), (7, 0.3, "balanced", 4, None),
         (6, 0.3, "balanced", 3, 3), (7, 0.5, "path", 7, None)],
    )
    def test_final_counts_and_last_split(self, n, p, family, depth, max_splits):
        rng = np.random.default_rng([n, 17])
        if family == "random":
            target = generate_random_tree(n, depth, rng)
        elif family == "balanced":
            target = generate_balanced_target(depth, n, rng)
        else:
            target = generate_path_target(depth, rng)
        oracle, dist = TreeOracle(target, n), ProductDistribution([p] * n)
        eps, delta, seed = 0.2, 0.1, 11
        result = build_topdown_practical(oracle, dist, eps, delta, seed=seed, max_splits=max_splits)
        last = result.steps[-1]
        assert result.stop_reason == ("max_splits" if max_splits else "stopping_test")

        def points(stream, schedule):
            draws = _redraw(seed, stream, lambda j: schedule(j, eps, delta), last.step)
            return np.concatenate([dist.draw_codes(r, count) for r, count in draws])

        ll = points(sampling._LL_STREAM, labeling_schedule)
        ll_leaf, ll_positive = route_codes(result.bare, ll), oracle.label_codes(ll) > 0
        labels = {}
        for leaf_id in result.bare.leaf_ids():
            here = ll_leaf == leaf_id
            positives = np.count_nonzero(here & ll_positive)
            labels[leaf_id] = 1 if 2 * positives >= np.count_nonzero(here) else -1
        assert result.tree == label_leaves(result.bare, labels)
        ee = points(sampling._EE_STREAM, error_schedule)
        assert last.error_samples == len(ee)
        assert last.mismatches == np.count_nonzero(
            route_codes(result.tree, ee) != oracle.label_codes(ee)
        )

        # the last split, scored again on the tree replayed to that step
        split = [s for s in result.steps if s.split_leaf is not None][-1]
        bare, next_id = BareTree(BareLeaf(0)), 1
        for s in result.steps[: split.step - 1]:
            bare = split_leaf(bare, s.split_leaf, s.split_coord, next_id, next_id + 1)
            next_id += 2
        paths = {leaf.id: restriction.coordinates() for restriction, leaf in leaf_paths(bare)}
        drawn = pair_schedule(split.step, delta, eps, n)
        estimates = {}
        for i in range(n):
            hits = dict.fromkeys(paths, 0)
            draws = _redraw(
                seed, sampling._PAIR_STREAM, lambda j: pair_schedule(j, delta, eps, n), split.step, i
            )
            for r, count in draws:
                batch = draw_pair_batch(oracle, dist, i, r, count)
                for leaf_id, codes in pair_hits(batch, bare, paths).items():
                    hits[leaf_id] += len(codes)
            for leaf_id, path in paths.items():
                if i not in path:
                    estimates[leaf_id, i] = hits[leaf_id] / drawn
        best = max(estimates.values())
        assert split.best_estimate == best
        assert (split.split_leaf, split.split_coord) == min(
            key for key, estimate in estimates.items() if estimate == best
        )
