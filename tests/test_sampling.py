"""Schedules, pair sampling, the split-score estimator, and the sample-driven builder."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedytree import core, sampling
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
)
from greedytree.exact import tree_error
from greedytree.sampling import (
    build_topdown_practical,
    draw_pair_batch,
    error_schedule,
    labeling_schedule,
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


def _random_bare(n: int, rng: np.random.Generator, splits: int) -> BareTree:
    """A bare tree of up to ``splits`` random splits."""
    bare, paths = BareTree(BareLeaf(0)), {0: frozenset()}
    for _ in range(splits):
        leaf_id = int(rng.choice(sorted(paths)))
        free = [i for i in range(n) if i not in paths[leaf_id]]
        if not free:
            continue
        coord = int(rng.choice(free))
        bare, lo_id, hi_id = split_leaf(bare, leaf_id, coord)
        paths[lo_id] = paths[hi_id] = paths.pop(leaf_id) | {coord}
    return bare


def _replay(dist, rng, count):
    """The points x of a pair draw and the word x ^ y of the bits their
    redraws y flipped: two draws of ``count`` codes."""
    x = dist.draw_codes(rng, count)
    return x, x ^ dist.draw_codes(rng, count)


def _flipped(flips, n):
    """Per coordinate, the indices of the points whose redrawn bit differs."""
    return {i: np.flatnonzero((flips & np.uint64(1 << i)) != 0) for i in range(n)}


def _off_path_flipped(x, flips, bare, n):
    """Per coordinate, the indices of the points whose redrawn bit differs
    and whose leaf in ``bare`` does not query the coordinate."""
    paths = {leaf.id: restriction.coordinates() for restriction, leaf in leaf_paths(bare)}
    leaf = route_codes(bare, x)
    return {
        i: idx[[i not in paths[int(v)] for v in leaf[idx]]].astype(np.int64)
        for i, idx in _flipped(flips, n).items()
    }


def _expected_queries(flipped):
    """Each x with a labeled pair once, plus one per labeled pair."""
    some = len(np.unique(np.concatenate([np.empty(0, np.int64), *flipped.values()])))
    return some, sum(map(len, flipped.values()))


def _hits_labeling_every_pair(oracle, dist, rng, count, bare):
    """Reference estimator: label both endpoints of every pair of the shared
    draw, route both, and count a pair at (leaf, coordinate) when both
    endpoints reach the leaf and disagree."""
    x, flips = _replay(dist, rng, count)
    x_label, x_leaf = oracle.label_codes(x), route_codes(bare, x)
    hits = {}
    for i in range(dist.n):
        alt = x ^ (flips & np.uint64(1 << i))
        counted = (x_label != oracle.label_codes(alt)) & (x_leaf == route_codes(bare, alt))
        for leaf in np.unique(x_leaf[counted]):
            hits[int(leaf), i] = x[counted & (x_leaf == leaf)]
    return hits


def _per_coordinate_pair_draw(oracle, x, flips, i):
    """Coordinate i's pair draw on the points x: the codes whose redrawn
    bit i flipped, and the labels of each and of it with bit i flipped."""
    x = x[np.flatnonzero((flips & np.uint64(1 << i)) != 0)]
    return x, oracle.label_codes(x), oracle.label_codes(x ^ np.uint64(1 << i))


def _estimate(batch, leaf_id, coord, count) -> float:
    """The (leaf, coordinate) estimate of a batch of ``count`` drawn points."""
    return len(batch.hits.get((leaf_id, coord), ())) / count


def _balanced_case(n, p, kind):
    """A depth-min(n, 4) balanced target over n coordinates at bias p, as a
    tree or a truth-table oracle; tree targets above n = 24 label by
    routing instead of a table."""
    rng = np.random.default_rng([n, int(p * 10)])
    target = generate_balanced_target(min(n, 4), n, rng)
    oracle = TreeOracle(target, n)
    if kind == "table":
        oracle = TruthTableOracle(oracle.label_codes(np.arange(1 << n, dtype=np.uint64)))
    return target, oracle, ProductDistribution([p] * n), rng


ROOT = BareTree(BareLeaf(0))
CASES = [(n, "tree") for n in (1, 5, 12, 25, 64)] + [(n, "table") for n in (1, 5, 12)]


class TestDrawPair:
    def test_endpoints_differ_at_most_at_i(self):
        # every labeled pair is (x, x with bit i flipped), coordinate by
        # coordinate in ascending order, and both labels are the oracle's
        oracle = TreeOracle(DICTATOR, 2)
        counting = CountingOracle(oracle)
        rng = np.random.default_rng(0)
        ref = copy.deepcopy(rng)
        batch = draw_pair_batch(counting, UNIFORM2, rng, 500, ROOT)
        x, flips = _replay(UNIFORM2, ref, 500)
        flipped = [x[idx] for idx in _flipped(flips, 2).values()]
        assert len(batch) > 0
        assert counting.queries == np.count_nonzero(flips != 0) + len(batch)
        assert np.array_equal(batch.x_labels, oracle.label_codes(np.concatenate(flipped)))
        alt = [oracle.label_codes(f ^ np.uint64(1 << i)) for i, f in enumerate(flipped)]
        assert np.array_equal(batch.alt_labels, np.concatenate(alt))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("count", [0, 1, 999, 70_000])
    @pytest.mark.parametrize("p", [0.5, 0.3, 0.1])
    @pytest.mark.parametrize("n", [1, 5, 12, 25])
    def test_one_coordinate_is_the_per_coordinate_draw(self, n, p, count):
        # coordinate i's slice of the shared batch is coordinate i's pair
        # draw on the same x: the x whose redrawn bit i flipped and both
        # their labels, and the hits at (root, i) are those that disagree;
        # 70K points fill blocks on the draw threads
        _, oracle, dist, _ = _balanced_case(n, p, "tree")
        ours = np.random.default_rng([count, n])
        ref = copy.deepcopy(ours)
        counting = CountingOracle(oracle)
        batch = draw_pair_batch(counting, dist, ours, count, ROOT)
        x, flips = _replay(dist, ref, count)
        start = 0
        for i in range(n):
            codes, x_labels, alt_labels = _per_coordinate_pair_draw(oracle, x, flips, i)
            stop = start + len(codes)
            assert np.array_equal(batch.x_labels[start:stop], x_labels)
            assert np.array_equal(batch.alt_labels[start:stop], alt_labels)
            hits = codes[x_labels != alt_labels]
            assert ((0, i) in batch.hits) == (len(hits) > 0)
            assert np.array_equal(batch.hits.get((0, i), hits), hits)
            start = stop
        assert start == len(batch)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert counting.queries == np.count_nonzero(flips != 0) + len(batch)

    @pytest.mark.parametrize("p", [0.5, 0.1])
    @pytest.mark.parametrize("n,kind", CASES)
    def test_label_queries_count_each_x_once(self, n, kind, p):
        # each x that flipped for some coordinate is labeled once, and each
        # flipped x ^ (1 << i) once
        _, oracle, dist, _ = _balanced_case(n, p, kind)
        counting = CountingOracle(oracle)
        rng = np.random.default_rng([n, 3])
        ref = copy.deepcopy(rng)
        batch = draw_pair_batch(counting, dist, rng, 3000, ROOT)
        flipped = _flipped(_replay(dist, ref, 3000)[1], n)
        some = len(np.unique(np.concatenate(list(flipped.values()))))
        assert counting.queries == some + sum(map(len, flipped.values()))
        assert len(batch) == len(batch.alt_labels) == sum(map(len, flipped.values()))

    @pytest.mark.parametrize("p", [0.5, 0.1])
    @pytest.mark.parametrize("n,kind", CASES)
    def test_label_queries_skip_on_path_flips(self, n, kind, p):
        # below the root, a pair is labeled only when its flipped coordinate
        # is off the path of the leaf x reaches: each such x once, and each
        # such flipped x ^ (1 << i) once, with the oracle's labels in order
        _, oracle, dist, rng = _balanced_case(n, p, kind)
        bare = _random_bare(n, rng, min(n - 1, 5))
        counting = CountingOracle(oracle)
        ours = np.random.default_rng([n, 11])
        x, flips = _replay(dist, copy.deepcopy(ours), 3000)
        flipped = _off_path_flipped(x, flips, bare, n)
        batch = draw_pair_batch(counting, dist, ours, 3000, bare)
        some, pairs = _expected_queries(flipped)
        assert counting.queries == some + pairs
        assert len(batch) == pairs
        codes = [x[idx] for idx in flipped.values()]
        assert np.array_equal(batch.x_labels, oracle.label_codes(np.concatenate(codes)))
        alt = [oracle.label_codes(c ^ np.uint64(1 << i)) for i, c in enumerate(codes)]
        assert np.array_equal(batch.alt_labels, np.concatenate(alt))
        skipped = sum(map(len, _flipped(flips, n).values())) - pairs
        assert skipped > 0 or len(bare.leaf_ids()) == 1

    def test_disagreement_rate_biased(self):
        # each redrawn bit differs from the original with probability
        # 2 p_i (1 - p_i), and at the root every such pair is labeled
        oracle, dist = TreeOracle(DICTATOR, 2), ProductDistribution([0.3, 0.5])
        batch = draw_pair_batch(oracle, dist, np.random.default_rng(1), 100_000, ROOT)
        assert abs(len(batch) / 100_000 - (0.42 + 0.5)) < 0.01

    def test_disagreement_rate_uniform(self):
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, UNIFORM2, np.random.default_rng(2), 100_000, ROOT)
        assert abs(len(batch) / 100_000 - (0.5 + 0.5)) < 0.01

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.1])
    @pytest.mark.parametrize("n,kind", CASES)
    def test_hits_equal_labeling_every_pair(self, n, kind, p):
        # labeling only the flipped pairs and routing only the disagreeing
        # x leaves the hit arrays and the random stream exactly as labeling
        # and routing both endpoints of every pair of the same shared draw
        _, oracle, dist, rng = _balanced_case(n, p, kind)
        bare = _random_bare(n, rng, min(n - 1, 3))
        ours, ref = np.random.default_rng([7, n]), np.random.default_rng([7, n])
        hits = draw_pair_batch(oracle, dist, ours, 3000, bare).hits
        expected = _hits_labeling_every_pair(oracle, dist, ref, 3000, bare)
        assert sorted(hits) == sorted(expected)
        for key, codes in expected.items():
            assert np.array_equal(hits[key], codes)
        assert ours.random() == ref.random()
        assert sum(map(len, hits.values())) > 0

    def test_no_whole_tree_walk(self, monkeypatch):
        # the leaves' path masks and routing table come from the bare tree's
        # own paths: with every whole-tree walk made to raise, a tree never
        # routed before gives the same hits as an equal tree
        _, oracle, dist, rng = _balanced_case(12, 0.3, "tree")
        bare = _random_bare(12, rng, 8)
        assert len(bare.leaf_ids()) > 4
        equal = BareTree(bare.root)
        expected = draw_pair_batch(oracle, dist, np.random.default_rng(9), 3000, equal).hits
        assert bare._route_table is None

        def walk(root):
            raise AssertionError("whole-tree walk in a pair draw")

        monkeypatch.setattr(core, "_leaves", walk)
        monkeypatch.setattr(sampling, "_leaves", walk, raising=False)
        hits = draw_pair_batch(oracle, dist, np.random.default_rng(9), 3000, bare).hits
        assert sorted(hits) == sorted(expected) and len(hits) > 0
        for key, codes in expected.items():
            assert np.array_equal(hits[key], codes)


class TestScoreEstimate:
    def test_all_labels_agree_gives_zero(self):
        oracle = TreeOracle(DecisionTree(Leaf(1)), 2)
        batch = draw_pair_batch(oracle, UNIFORM2, np.random.default_rng(8), 8, ROOT)
        assert len(batch) > 0 and np.array_equal(batch.x_labels, batch.alt_labels)
        assert batch.hits == {}
        assert _estimate(batch, 0, 0, 8) == 0.0

    def test_root_only_tree_counts_disagreements(self):
        oracle = TreeOracle(DICTATOR, 2)
        batch = draw_pair_batch(oracle, UNIFORM2, np.random.default_rng(3), 4000, ROOT)
        disagree = int(np.count_nonzero(batch.x_labels != batch.alt_labels))
        assert disagree > 0
        assert _estimate(batch, 0, 0, 4000) == pytest.approx(disagree / 4000)
        assert _estimate(batch, 0, 1, 4000) == 0.0

    def test_unbiased_for_dictator_root(self):
        # mean over 200 fresh pools of 1000 pairs within 3 standard errors of 1/2
        oracle = TreeOracle(DICTATOR, 2)
        rng = np.random.default_rng(4)
        batches = [draw_pair_batch(oracle, UNIFORM2, rng, 1000, ROOT) for _ in range(200)]
        estimates = [_estimate(batch, 0, 0, 1000) for batch in batches]
        stderr = np.std(estimates, ddof=1) / math.sqrt(200)
        assert abs(np.mean(estimates) - 0.5) <= 3 * stderr

    def test_pair_crossing_a_split_never_fires(self):
        # pairs redrawn on the split coordinate reach opposite children and
        # cannot contribute to either child's estimate, so none is labeled;
        # at the root the same stream labels disagreeing pairs
        bare = split_leaf(ROOT, 0, 0)[0]
        dist = ProductDistribution([0.5])
        oracle = CountingOracle(TreeOracle(DICTATOR, 1))
        at_root = draw_pair_batch(oracle, dist, np.random.default_rng(5), 5000, ROOT)
        assert np.any(at_root.x_labels != at_root.alt_labels) and at_root.hits
        oracle.queries = 0
        batch = draw_pair_batch(oracle, dist, np.random.default_rng(5), 5000, bare)
        assert batch.hits == {}
        assert len(batch) == oracle.queries == 0

    def test_off_path_coordinate_routes_with_x(self):
        # when the redrawn coordinate is not queried, x reaches the leaf
        # iff the redrawn point does: both-reach reduces to x-reach
        bare = split_leaf(ROOT, 0, 1)[0]
        oracle = TreeOracle(DICTATOR, 2)
        rng = np.random.default_rng(6)
        ref = copy.deepcopy(rng)
        hits = draw_pair_batch(oracle, UNIFORM2, rng, 5000, bare).hits
        assert sorted(hits) == [(1, 0), (2, 0)]
        x, flips = _replay(UNIFORM2, ref, 5000)
        flipped = x[_flipped(flips, 2)[0]]
        disagree = oracle.label_codes(flipped) != oracle.label_codes(flipped ^ np.uint64(1))
        for (leaf, _), codes in hits.items():
            assert np.all(route_codes(bare, codes) == leaf)
            assert np.all(route_codes(bare, codes ^ np.uint64(1)) == leaf)
            at_leaf = route_codes(bare, flipped) == leaf
            assert len(codes) == np.count_nonzero(at_leaf & disagree)


@pytest.fixture
def pair_batches(monkeypatch) -> list[int]:
    """The size of each pair batch the builder draws, in order."""
    counts = []

    def recording(oracle, dist, rng, count, bare):
        counts.append(count)
        return draw_pair_batch(oracle, dist, rng, count, bare)

    monkeypatch.setattr(sampling, "draw_pair_batch", recording)
    return counts


class TestPracticalBuilder:
    def test_constant_target_terminates_immediately(self, pair_batches):
        # the stopping test passes at step 1, before any pair is drawn
        oracle = CountingOracle(TreeOracle(DecisionTree(Leaf(1)), 2))
        result = build_topdown_practical(oracle, UNIFORM2, 0.2, 0.1, seed=0)
        assert result.terminated
        assert size(result.tree) == 1
        assert result.tree == DecisionTree(Leaf(1))
        assert result.steps[0].mismatches == 0
        assert len(result.steps) == 1
        points = labeling_schedule(1, 0.2, 0.1) + error_schedule(1, 0.2, 0.1)
        assert pair_batches == [] and result.usage[0].pair_floor == 0
        assert result.label_queries == result.random_draws == oracle.queries == points

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
        # a run that the stopping test ends at step J tops the pair pools
        # up in steps 1..J-1 only, so its draws telescope to the step-J
        # labeling and stopping floors and the step-(J-1) pair floor,
        # counting each drawn point once; label queries are the labeling
        # and stopping pools, each x that flipped for some coordinate off
        # its leaf's path, and each such flipped x ^ (1 << i)
        labeled, flips = [], []

        def recording(oracle, dist, rng, count, bare):
            x, flipped = _replay(dist, copy.deepcopy(rng), count)
            some, pairs = _expected_queries(_off_path_flipped(x, flipped, bare, dist.n))
            flips.append(pairs)
            labeled.append(some + pairs)
            return draw_pair_batch(oracle, dist, rng, count, bare)

        monkeypatch.setattr(sampling, "draw_pair_batch", recording)
        stops = []
        for p in (0.5, 0.1):
            labeled.clear()
            flips.clear()
            oracle = CountingOracle(TreeOracle(DICTATOR, 2))
            result = build_topdown_practical(oracle, ProductDistribution([p, p]), 0.2, 0.1, seed=3)
            j = result.steps[-1].step
            stops.append(j)
            assert result.stop_reason == "stopping_test"
            points = labeling_schedule(j, 0.2, 0.1) + error_schedule(j, 0.2, 0.1)
            drawn_pairs = pair_schedule(j - 1, 0.1, 0.2, 2) if j > 1 else 0
            assert len(labeled) == j - 1
            assert result.usage[-1].pair_floor == drawn_pairs
            assert result.random_draws == result.usage[-1].random_draws == points + 2 * drawn_pairs
            assert result.label_queries == oracle.queries == points + sum(labeled)
            assert (0 < sum(flips) < 2 * drawn_pairs) == (j > 1)
        # at p = 0.5 the root splits; at p = 0.1 the root's error 0.1 passes at once
        assert stops[0] > 1 and stops[1] == 1

    @pytest.mark.parametrize("max_splits", [0, 1, 2, 3])
    def test_max_splits_bounds_the_pair_batches(self, pair_batches, max_splits):
        # the step that max_splits ends draws no pair, so a run of k splits
        # draws k batches, each the increment of the pair floor
        target = generate_balanced_target(3, 5, np.random.default_rng(2))
        dist = ProductDistribution([0.5] * 5)
        result = build_topdown_practical(
            TreeOracle(target, 5), dist, 0.05, 0.1, seed=4, max_splits=max_splits
        )
        assert result.stop_reason == "max_splits" and result.splits == max_splits
        floors = [0] + [pair_schedule(j, 0.1, 0.05, 5) for j in range(1, max_splits + 1)]
        assert pair_batches == [b - a for a, b in zip(floors, floors[1:])]
        assert [row.pair_floor for row in result.usage] == floors[1:] + floors[-1:]

    def test_counts_through_a_plain_oracle(self):
        # the builder counts label queries itself, through any oracle, and
        # each usage row's draws are its floors, a pair being two points
        class Tally(core.TargetOracle):
            def __init__(self, inner):
                self.inner, self.n, self.seen = inner, inner.n, 0

            def label_codes(self, codes):
                self.seen += len(codes)
                return self.inner.label_codes(codes)

        target = generate_balanced_target(3, 5, np.random.default_rng(2))
        oracle = Tally(TreeOracle(target, 5))
        result = build_topdown_practical(oracle, ProductDistribution([0.3] * 5), 0.1, 0.1, seed=6)
        assert result.splits > 0
        assert result.label_queries == result.usage[-1].label_queries == oracle.seen
        for row in result.usage:
            assert row.random_draws == row.labeling_floor + row.error_floor + 2 * row.pair_floor
        assert result.random_draws == result.usage[-1].random_draws

    @pytest.mark.parametrize("max_splits", [0, 3, None])
    def test_every_drawn_x_is_routed_through_route_codes(self, monkeypatch, max_splits):
        # the builder routes every labeling, stopping-test and pair x code
        # through the name ``sampling.route_codes``, where a tracer wraps it
        routed = []

        def counting(tree, codes):
            assert isinstance(tree, BareTree)
            routed.append(len(codes))
            return route_codes(tree, codes)

        monkeypatch.setattr(sampling, "route_codes", counting)
        target = generate_balanced_target(3, 6, np.random.default_rng(2))
        result = build_topdown_practical(
            TreeOracle(target, 6), ProductDistribution([0.3] * 6), 0.1, 0.1, seed=5,
            max_splits=max_splits,
        )
        last = result.usage[-1]
        assert (result.splits > 3) == (max_splits is None)
        assert sum(routed) == last.labeling_floor + last.error_floor + last.pair_floor
        assert sum(routed) == result.random_draws - last.pair_floor > 0

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
        leaf = sampling._LeafState(pools)
        assert (leaf.label, leaf.mismatches) == (1, 1)
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


def _redraw(seed: int, stream: int, schedule, steps: int) -> list:
    """The increments of ``schedule`` for steps 1..``steps``, each with the
    builder's stream for that step."""
    floors = [0] + [schedule(j) for j in range(1, steps + 1)]
    return [
        (sampling._stream(seed, stream, j), floors[j] - floors[j - 1])
        for j in range(1, steps + 1)
    ]


ROUTING_CASES = [
    (5, 0.3, "random", 3, None), (6, 0.5, "balanced", 2, None), (7, 0.3, "balanced", 4, None),
    (6, 0.3, "balanced", 3, 3), (7, 0.5, "path", 7, None),
]


def _routing_case(n, p, family, depth):
    """The oracle of a random, balanced or path target, and bias p on n coordinates."""
    rng = np.random.default_rng([n, 17])
    if family == "random":
        target = generate_random_tree(n, depth, rng)
    elif family == "balanced":
        target = generate_balanced_target(depth, n, rng)
    else:
        target = generate_path_target(depth, rng)
    return TreeOracle(target, n), ProductDistribution([p] * n)


class TestPoolsEqualRoutingFromScratch:
    """The builder's partitioned pools count what routing every sample from
    the root of the current tree counts."""

    @pytest.mark.parametrize("n,p,family,depth,max_splits", ROUTING_CASES)
    def test_final_counts_and_last_split(self, n, p, family, depth, max_splits):
        oracle, dist = _routing_case(n, p, family, depth)
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
        for step, row in zip(result.steps, result.usage, strict=True):
            assert step.error_samples == row.error_floor == error_schedule(step.step, eps, delta)
        assert last.mismatches == np.count_nonzero(
            route_codes(result.tree, ee) != oracle.label_codes(ee)
        )

        # the last split, scored again on the tree replayed to that step
        split = [s for s in result.steps if s.split_leaf is not None][-1]
        bare = BareTree(BareLeaf(0))
        for s in result.steps[: split.step - 1]:
            bare = split_leaf(bare, s.split_leaf, s.split_coord)[0]
        paths = {leaf.id: restriction.coordinates() for restriction, leaf in leaf_paths(bare)}
        drawn = pair_schedule(split.step, delta, eps, n)
        hits = dict.fromkeys(((leaf_id, i) for leaf_id in paths for i in range(n)), 0)
        draws = _redraw(
            seed, sampling._PAIR_STREAM, lambda j: pair_schedule(j, delta, eps, n), split.step
        )
        for r, count in draws:
            expected = _hits_labeling_every_pair(oracle, dist, r, count, bare)
            for key, codes in expected.items():
                hits[key] += len(codes)
        estimates = {
            (leaf_id, i): count / drawn
            for (leaf_id, i), count in hits.items()
            if i not in paths[leaf_id]
        }
        assert all(count == 0 for (leaf_id, i), count in hits.items() if i in paths[leaf_id])
        best = max(estimates.values())
        assert split.best_estimate == best
        assert (split.split_leaf, split.split_coord) == min(
            key for key, estimate in estimates.items() if estimate == best
        )

    @pytest.mark.parametrize("n,p,family,depth,max_splits", ROUTING_CASES)
    def test_only_splitting_steps_draw_pairs(
        self, monkeypatch, pair_batches, n, p, family, depth, max_splits
    ):
        # one pair batch per split, and the step that ends the run never
        # asks for its pair stream
        keys = []

        def recording(seed, *key):
            keys.append(key)
            return stream(seed, *key)

        stream = sampling._stream
        monkeypatch.setattr(sampling, "_stream", recording)
        oracle, dist = _routing_case(n, p, family, depth)
        result = build_topdown_practical(oracle, dist, 0.2, 0.1, seed=11, max_splits=max_splits)
        last = result.steps[-1].step
        assert len(pair_batches) == result.splits == last - 1
        assert [k for k in keys if k[0] == sampling._PAIR_STREAM] == [
            (sampling._PAIR_STREAM, j) for j in range(1, last)
        ]
        assert (sampling._PAIR_STREAM, last) not in keys


class TestWorkingMemory:
    """Pools in the narrowest code dtype, batches worked in slices: the
    slice size changes nothing but memory."""

    def test_slice_size_leaves_the_build_unchanged(self, monkeypatch):
        oracle, dist = _routing_case(5, 0.3, "balanced", 2)
        expected = build_topdown_practical(oracle, dist, 0.3, 0.1, seed=7)
        monkeypatch.setattr(sampling, "_SLICE", 7)
        counting = CountingOracle(oracle)
        result = build_topdown_practical(counting, dist, 0.3, 0.1, seed=7)
        assert result.splits > 0
        assert repr(result) == repr(expected)
        assert counting.queries == expected.label_queries

    @pytest.mark.parametrize("count", [0, 5, 300])
    def test_slice_size_leaves_the_pair_batch_unchanged(self, monkeypatch, count):
        # 300 points are 42 slices of 7 and one of 6
        oracle, dist = _routing_case(6, 0.5, "balanced", 3)
        bare = BareTree(BareLeaf(0))
        for leaf_id, coord in ((0, 0), (1, 1), (2, 2), (4, 3)):
            bare = split_leaf(bare, leaf_id, coord)[0]
        assert len(bare.leaf_ids()) == 5
        expected = draw_pair_batch(oracle, dist, np.random.default_rng(3), count, bare)
        monkeypatch.setattr(sampling, "_SLICE", 7)
        rng = np.random.default_rng(3)
        batch = draw_pair_batch(oracle, dist, rng, count, bare)
        assert rng.random() == np.random.default_rng(3).random(2 * 6 * count + 1)[-1]
        for got, want in ((batch.x_labels, expected.x_labels),
                          (batch.alt_labels, expected.alt_labels)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert list(batch.hits) == list(expected.hits)  # the keys in the same order
        assert list(batch.hits) == sorted(batch.hits)  # by leaf id, then coordinate
        assert (len(batch.hits) > 5) == (count == 300)
        for key, codes in expected.hits.items():
            assert batch.hits[key].dtype == np.uint64 and np.array_equal(batch.hits[key], codes)

    @pytest.mark.parametrize("n,dtype", [(12, np.uint16), (20, np.uint32), (40, np.uint64)])
    def test_pools_take_the_narrowest_code_dtype(self, monkeypatch, n, dtype):
        seen = []
        split = sampling._LeafState.split

        def recording(state, coord):
            seen.extend(codes.dtype for codes in state.pools.values())
            return split(state, coord)

        monkeypatch.setattr(sampling._LeafState, "split", recording)
        oracle = TreeOracle(DecisionTree(Internal(n - 1, Leaf(-1), Leaf(1))), n)
        result = build_topdown_practical(
            oracle, ProductDistribution([0.5] * n), 0.2, 0.1, seed=1, max_splits=1
        )
        assert result.steps[0].split_coord == n - 1
        assert len(seen) == n + 4 and set(seen) == {np.dtype(dtype)}

    def test_practical_n20_peak_stays_under_20_mb(self):
        # The n = 20 path target at eps = 0.03 holds about 2.07M pooled
        # codes when it ends.  With uint64 pools, each top-up labeled and
        # routed in one piece, the build's traced peak was 28.0 MB; with
        # uint32 pools and sliced top-ups it is about 15 MB, the step-1
        # labeling draw of 919K uint64 codes (7.4 MB) the largest transient.
        import tracemalloc

        oracle = TreeOracle(generate_path_target(20, np.random.default_rng(5)), 20)
        oracle.label_codes(np.zeros(1, dtype=np.uint64))  # the 1 MB table, filled before
        dist = ProductDistribution([0.5] * 20)
        tracemalloc.start()
        try:
            result = build_topdown_practical(oracle, dist, 0.03, 0.1, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.terminated
        assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"
