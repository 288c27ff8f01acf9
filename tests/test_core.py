"""Core data model: routing, reach probabilities, depths, serialization."""

import gc
import json
import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from greedytree import core
from greedytree.core import (
    TABLE_MAX_COORDS,
    BareLeaf,
    CountingOracle,
    BareTree,
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    Restriction,
    TreeFormatError,
    TreeOracle,
    TruthTableOracle,
    average_depth,
    label_leaves,
    leaf_paths,
    max_depth,
    pack_bits,
    parse_distribution,
    parse_tree,
    route,
    route_codes,
    route_groups,
    serialize_distribution,
    serialize_tree,
    size,
    split_leaf,
    tree_variables,
    unpack_bits,
)
from greedytree.sampling import build_topdown_practical
from greedytree.targets import (
    generate_balanced_target,
    generate_path_target,
    generate_random_tree,
    generate_truth_table,
)
from greedytree.verify import _table_as_tree

DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))
DEPTH2 = DecisionTree(
    Internal(0, Internal(1, Leaf(1), Leaf(-1)), Internal(1, Leaf(-1), Leaf(1)))
)


class TestProductDistribution:
    def test_rejects_degenerate_biases(self):
        for bad in ([0.0, 0.5], [0.5, 1.0], [1.5], [-0.1]):
            with pytest.raises(ValueError):
                ProductDistribution(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProductDistribution([])

    def test_draw_matches_biases(self):
        dist = ProductDistribution([0.3, 0.8])
        rng = np.random.default_rng(0)
        bits = unpack_bits(dist.draw_codes(rng, 200_000), 2)
        assert abs(bits[:, 0].mean() - 0.3) < 0.01
        assert abs(bits[:, 1].mean() - 0.8) < 0.01

    def test_draw_coordinates_independent(self):
        dist = ProductDistribution([0.4, 0.6])
        bits = unpack_bits(dist.draw_codes(np.random.default_rng(1), 200_000), 2)
        joint = float(np.mean(bits[:, 0] * bits[:, 1]))
        assert abs(joint - 0.24) < 0.01


def _reference_draw(biases, rng, count):
    """``draw_codes`` as one loop over coordinates on the caller's stream."""
    codes = np.zeros(count, dtype=np.uint64)
    for i, p in enumerate(biases):
        codes |= (rng.random(count) < p).astype(np.uint64) << np.uint64(i)
    return codes


BLOCK = core._MIN_BLOCK
# Where the block layout changes with two draw threads: inline below two
# blocks, then two blocks up to four, then an even number.
BLOCK_EDGES = [0, 1, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]
BLOCK_EDGES += [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 7 * BLOCK + 3]


class TestDrawStream:
    """Every split of a draw into blocks yields the one-loop codes and leaves
    the generator where the loop leaves it."""

    @staticmethod
    def _assert_same_as_reference(dist, make_rng, count):
        rng, ref = make_rng(), make_rng()
        assert np.array_equal(dist.draw_codes(rng, count), _reference_draw(dist.biases, ref, count))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert np.array_equal(rng.random(5), ref.random(5))

    @pytest.mark.parametrize("count", BLOCK_EDGES)
    @pytest.mark.parametrize("n", [1, 20, 64])
    def test_pcg64_matches_one_loop(self, monkeypatch, n, count):
        monkeypatch.setattr(core, "_DRAW_THREADS", 2)  # the block path even on one CPU
        dist = ProductDistribution(np.random.default_rng(n).uniform(0.05, 0.95, n))
        self._assert_same_as_reference(dist, lambda: np.random.default_rng(count), count)

    def test_numpy_integer_count(self, monkeypatch):
        monkeypatch.setattr(core, "_DRAW_THREADS", 2)
        dist = ProductDistribution([0.3] * 4)
        self._assert_same_as_reference(dist, lambda: np.random.default_rng(2), np.int64(3 * BLOCK))

    @pytest.mark.parametrize("count", [2 * BLOCK, 3 * BLOCK + 1, 4 * BLOCK, 5 * BLOCK + 7])
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_any_thread_count_matches_one_loop(self, monkeypatch, threads, count):
        # 2 to 5 blocks before rounding to a multiple of the thread count
        monkeypatch.setattr(core, "_DRAW_THREADS", threads)

        def make_rng():
            rng = np.random.default_rng([threads, count])
            rng.random(dtype=np.float32)  # a pending half word
            return rng

        dist = ProductDistribution(np.random.default_rng(threads).uniform(0.05, 0.95, 20))
        self._assert_same_as_reference(dist, make_rng, count)

    @pytest.mark.parametrize("count", [1, 2 * BLOCK + 1, 3 * BLOCK])
    def test_pending_half_word_survives(self, monkeypatch, count):
        # a float32 draw leaves half of a 64-bit output pending; advance() drops it
        monkeypatch.setattr(core, "_DRAW_THREADS", 2)

        def make_rng():
            rng = np.random.default_rng(5)
            rng.random(dtype=np.float32)
            return rng

        assert make_rng().bit_generator.state["has_uint32"] == 1
        self._assert_same_as_reference(ProductDistribution([0.3] * 64), make_rng, count)

    @pytest.mark.parametrize("count", [0, 3 * BLOCK])
    def test_other_bit_generators_draw_inline(self, monkeypatch, count):
        monkeypatch.setattr(core, "_DRAW_THREADS", 2)
        dist = ProductDistribution([0.2, 0.7, 0.5])
        self._assert_same_as_reference(dist, lambda: np.random.Generator(np.random.MT19937(3)), count)

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more callers than CPUs, all starting the pool at once, with frequent thread switches
        monkeypatch.setattr(core, "_DRAW_THREADS", 2)
        monkeypatch.setattr(core, "_DRAW_POOL", [])
        dist = ProductDistribution([0.3] * 8)
        seeds = range(6)

        def draw(seed):
            return dist.draw_codes(np.random.default_rng(seed), 3 * BLOCK)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(seeds)) as callers:
                drawn = list(callers.map(draw, seeds))
        finally:
            sys.setswitchinterval(switch)
        for s, codes in zip(seeds, drawn):
            want = _reference_draw(dist.biases, np.random.default_rng(s), 3 * BLOCK)
            assert np.array_equal(codes, want)

    def test_forked_child_draws_in_parallel(self):
        # The child inherits the parent's thread pool object but none of its
        # threads; a draw there must not wait on them.  Run in a subprocess
        # so that a regression fails on the timeout instead of hanging.
        script = textwrap.dedent(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            import numpy as np

            from greedytree import core

            def draw(seed):
                dist = core.ProductDistribution([0.3] * 8)
                return dist.draw_codes(np.random.default_rng(seed), 4 * core._MIN_BLOCK).tolist()

            if __name__ == "__main__":
                core._DRAW_THREADS = 2
                parent = draw(1)
                assert core._DRAW_POOL, "the parent's draw did not start the pool"
                fork = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(1, mp_context=fork) as pool:
                    assert pool.submit(draw, 1).result() == parent
                print("ok")
            """
        )
        src = str(Path(core.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the forked worker too
            proc.communicate()
            pytest.fail("a forked child's draw hung")
        assert proc.returncode == 0, err
        assert out.strip() == "ok"


class TestReachProbability:
    def test_empty_restriction(self):
        assert ProductDistribution([0.3, 0.5]).reach_probability(Restriction()) == 1.0

    def test_single_factor(self):
        dist = ProductDistribution([0.3, 0.5])
        assert dist.reach_probability(Restriction({0: 1})) == pytest.approx(0.3, abs=1e-15)

    def test_two_factors(self):
        dist = ProductDistribution([0.3, 0.5])
        assert dist.reach_probability(Restriction({0: 1, 1: 0})) == pytest.approx(0.15, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ProductDistribution([0.3]).reach_probability(Restriction({2: 1}))

    @staticmethod
    def _checked_loop(dist: ProductDistribution, restriction: Restriction) -> float:
        """The reference: a range check and a factor per coordinate, in order."""
        prob = 1.0
        for i, b in restriction.items():
            if not 0 <= i < dist.n:
                raise ValueError(f"coordinate {i} out of range for n={dist.n}")
            prob *= dist.biases[i] if b else 1.0 - dist.biases[i]
        return prob

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=12),
        st.dictionaries(st.integers(0, 16), st.integers(0, 1), max_size=12),
    )
    @example(biases=[0.3], fixed={2: 1, 0: 0, 5: 1})
    def test_equals_the_checked_loop_bit_for_bit(self, biases, fixed):
        dist, restriction = ProductDistribution(biases), Restriction(fixed)
        try:
            want = self._checked_loop(dist, restriction)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                dist.reach_probability(restriction)
            assert str(refused.value) == str(exc)  # names the lowest coordinate out of range
        else:
            assert dist.reach_probability(restriction).hex() == want.hex()

    def test_leaf_reach_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            tree = generate_random_tree(n, min(n, 4), rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            total = sum(dist.reach_probability(r) for r, _ in leaf_paths(tree))
            assert abs(total - 1.0) < 1e-12


class TestRestriction:
    def test_rejects_duplicate_coordinate(self):
        with pytest.raises(ValueError):
            Restriction([(0, 1), (0, 0)])

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            Restriction({0: 2})

    def test_extend_refuses_fixed_coordinate(self):
        with pytest.raises(ValueError):
            Restriction({1: 0}).extend(1, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        fixed=st.dictionaries(st.integers(0, 70), st.integers(0, 1), max_size=12),
        coordinate=st.integers(0, 70),
        bit=st.integers(0, 1),
    )
    def test_extend_equals_the_constructor(self, fixed, coordinate, bit):
        r = Restriction(fixed)
        if coordinate in fixed:
            with pytest.raises(ValueError, match="already fixed"):
                r.extend(coordinate, bit)
            return
        got, want = r.extend(coordinate, bit), Restriction(dict(r.fixed) | {coordinate: bit})
        assert got == want and got.fixed == want.fixed and hash(got) == hash(want)
        assert got.base_code() == want.base_code() and r.fixed == tuple(sorted(fixed.items()))

    @pytest.mark.parametrize("bit", [2, -1, 0.5, None])
    def test_extend_refuses_a_bit_outside_zero_one(self, bit):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Restriction({1: 0, 4: 1}).extend(2, bit)

    def test_extend_refuses_a_negative_coordinate(self):
        with pytest.raises(ValueError, match="negative coordinate"):
            Restriction({1: 0}).extend(-1, 1)

    @pytest.mark.parametrize("build", ["init", "extend"])
    def test_refuses_a_float_and_stores_numpy_integers_as_ints(self, build):
        def make(i, b):
            return Restriction({i: b}) if build == "init" else Restriction({5: 0}).extend(i, b)

        with pytest.raises(TypeError, match=r"coordinate 1\.0 is not an integer"):
            make(1.0, 1)
        with pytest.raises(ValueError, match=r"bit for coordinate 0 must be 0 or 1, got 1\.0"):
            make(0, 1.0)
        r = make(np.int64(2), np.uint8(1))
        assert all(type(v) is int for pair in r.fixed for v in pair)
        assert r.base_code() & 4 and "np." not in repr(r)

    def test_path_restriction_matches_queries(self):
        paths = dict()
        for r, leaf in leaf_paths(DEPTH2):
            paths[tuple(r.items())] = leaf.label
        assert ((0, 0), (1, 1)) in paths


class TestRoute:
    def test_single_leaf(self):
        assert route(DecisionTree(Leaf(1)), [0, 1, 0]) == 1

    def test_one_decision(self):
        assert route(DICTATOR, [1, 0]) == 1
        assert route(DICTATOR, [0, 1]) == -1

    def test_depth_two_hand_trace(self):
        # x = (0, 1): go lo at the root, then hi -> label -1
        assert route(DEPTH2, [0, 1]) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            route(DICTATOR, [])

    @pytest.mark.parametrize("bit", [2, -1, 0.5])
    def test_refuses_a_queried_value_outside_zero_one(self, bit):
        tree = DecisionTree(Internal(1, Leaf(-1), Leaf(1)))
        with pytest.raises(ValueError, match="x_1 must be 0 or 1"):
            route(tree, [0, bit])
        assert route(tree, [bit, 0]) == -1  # x_0 is never read

    def test_bare_tree_routes_to_id(self):
        bare = BareTree(Internal(0, BareLeaf(4), BareLeaf(9)))
        assert route(bare, [0]) == 4
        assert route(bare, [1]) == 9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**6 - 1), st.integers(0, 10**6))
    def test_route_total_and_deterministic(self, code, seed):
        tree = generate_random_tree(6, 4, np.random.default_rng(seed % 997))
        x = unpack_bits(np.array([code], dtype=np.uint64), 6)[0]
        assert route(tree, x) == route(tree, list(x)) == int(route_codes(tree, pack_bits(x[None]))[0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 300), st.booleans())
    @example(seed=0, count=0, bare=False)
    @example(seed=0, count=0, bare=True)
    def test_route_groups_partition_codes(self, seed, count, bare):
        rng = np.random.default_rng(seed)
        tree = generate_random_tree(6, 4, rng)
        if bare:
            ids = iter(rng.permutation(100).tolist())
            tree = BareTree(core._map_leaves(tree.root, lambda leaf: BareLeaf(next(ids))))
        codes = rng.integers(0, 1 << 6, size=count, dtype=np.uint64)
        groups = list(route_groups(tree, codes))
        # the groups are disjoint and cover every index once
        reached = np.concatenate([np.empty(0, dtype=np.intp)] + [idx for _, idx in groups])
        assert np.array_equal(np.sort(reached), np.arange(count))
        leaves = {id(leaf): (rank, path) for rank, (path, leaf) in enumerate(leaf_paths(tree))}
        ranks = []
        written = np.empty(count, dtype=np.int64)
        for leaf, idx in groups:
            assert len(idx) and np.all(np.diff(idx) > 0)
            rank, path = leaves[id(leaf)]
            ranks.append(rank)
            value = leaf.label if isinstance(leaf, Leaf) else leaf.id
            for x in unpack_bits(codes[idx], 6):
                assert route(tree, x) == value
                assert all(x[i] == b for i, b in path.items())  # this leaf, not another
            written[idx] = value
        assert ranks == sorted(ranks)  # left to right
        assert np.array_equal(route_codes(tree, codes), written)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 5, 15, 16, 17, 20, 64]), st.booleans())
    @example(seed=0, n=16, bare=False)
    def test_table_routes_as_the_walk(self, seed, n, bare):
        # a tree whose variables lie below bit 16 routes by its table, a
        # wider one by the walk; every code carries bits above the tree's
        rng = np.random.default_rng(seed)
        tree = generate_random_tree(n, min(n, 6), rng)
        if bare:
            ids = iter(rng.permutation(200).tolist())
            tree = BareTree(core._map_leaves(tree.root, lambda leaf: BareLeaf(next(ids))))
        codes = rng.integers(0, 1 << 64, size=int(rng.integers(0, 400)), dtype=np.uint64)
        walked = np.zeros(len(codes), dtype=np.int64)
        for leaf, idx in route_groups(tree, codes):
            walked[idx] = leaf.label if isinstance(leaf, Leaf) else leaf.id
        routed = route_codes(tree, codes)
        assert routed.dtype == np.int64 and np.array_equal(routed, walked)
        assert np.array_equal(route_codes(tree, codes[::-1]), walked[::-1])  # from the cache
        m = 1 + max(tree_variables(tree), default=-1)
        assert (tree._route_table is core._WALK) == (m > 16)
        if m <= 16:
            assert len(tree._route_table) == 1 << m

    @pytest.mark.parametrize("var,walks", [(15, False), (16, True), (63, True)])
    def test_table_bound_at_bit_16(self, var, walks):
        high = np.uint64(1 << var)
        for tree in (DecisionTree(Internal(var, Leaf(-1), Leaf(1))),
                     BareTree(Internal(var, BareLeaf(3), BareLeaf(8)))):
            lo, hi = route(tree, [0] * (var + 1)), route(tree, [0] * var + [1])
            codes = np.array([0, high, high | np.uint64(1), ~high, ~np.uint64(0)], dtype=np.uint64)
            assert route_codes(tree, codes).tolist() == [lo, hi, hi, lo, hi]
            assert (tree._route_table is core._WALK) == walks


class TestDepths:
    def test_single_leaf(self):
        assert max_depth(DecisionTree(Leaf(1))) == 0
        assert average_depth(DecisionTree(Leaf(1)), ProductDistribution([0.5])) == 0.0

    def test_full_depth_two_uniform(self):
        dist = ProductDistribution([0.5, 0.5])
        assert max_depth(DEPTH2) == 2
        assert average_depth(DEPTH2, dist) == pytest.approx(2.0, abs=1e-15)

    def test_path_tree_average_depth_n3(self):
        # sum_{k=1}^{2} k 2^-k + 3 * 2^-2 = 0.5 + 0.5 + 0.75
        tree = generate_path_target(3, np.random.default_rng(0))
        dist = ProductDistribution([0.5] * 3)
        assert average_depth(tree, dist) == pytest.approx(1.75, abs=1e-15)
        assert max_depth(tree) == 3

    def test_path_tree_average_depth_bounded(self):
        for n in range(1, 12):
            tree = generate_path_target(n, np.random.default_rng(n))
            dist = ProductDistribution([0.5] * n)
            assert average_depth(tree, dist) <= 2.0

    def test_average_depth_equals_nonroot_reach_sum(self):
        # independent identity: sum of reach probabilities over non-root nodes
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            tree = generate_random_tree(n, min(n, 4), rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))

            total = 0.0

            def walk(node, restriction):
                nonlocal total
                if len(restriction) > 0:
                    total += dist.reach_probability(restriction)
                if isinstance(node, Internal):
                    walk(node.lo, restriction.extend(node.var, 0))
                    walk(node.hi, restriction.extend(node.var, 1))

            walk(tree.root, Restriction())
            assert total == pytest.approx(average_depth(tree, dist), abs=1e-12)


class TestTreeInvariants:
    def test_rejects_repeated_variable_on_path(self):
        with pytest.raises(TreeFormatError):
            DecisionTree(Internal(0, Leaf(1), Internal(0, Leaf(1), Leaf(-1))))

    def test_repeated_variable_on_disjoint_paths_ok(self):
        DecisionTree(Internal(0, Internal(1, Leaf(1), Leaf(-1)), Internal(1, Leaf(-1), Leaf(1))))

    def test_bare_tree_ids_unique(self):
        with pytest.raises(TreeFormatError):
            BareTree(Internal(0, BareLeaf(3), BareLeaf(3)))

    def test_size_counts_leaves(self):
        assert size(DecisionTree(Leaf(1))) == 1
        assert size(DEPTH2) == 4

    def test_split_preserves_other_ids(self):
        bare = BareTree(Internal(0, BareLeaf(0), BareLeaf(1)))
        grown, lo_id, hi_id = split_leaf(bare, 1, 1)
        assert (lo_id, hi_id) == (2, 3)
        assert sorted(grown.leaf_ids()) == [0, 2, 3]
        assert size(grown) == size(bare) + 1

    def test_split_missing_leaf(self):
        with pytest.raises(KeyError):
            split_leaf(BareTree(BareLeaf(0)), 5, 0)

    def test_split_rejects_repeated_variable(self):
        bare = BareTree(Internal(0, BareLeaf(0), BareLeaf(1)))
        with pytest.raises(TreeFormatError, match="variable 0 repeated on a path"):
            split_leaf(bare, 1, 0)

    def test_split_ids_above_every_id_held(self):
        # a parsed tree's new leaves start one past its largest identifier,
        # and a split leaf's identifier is not handed out again
        bare = parse_tree('{"var":0,"lo":{"leaf":null,"id":7},"hi":{"leaf":null,"id":3}}')
        grown, lo_id, hi_id = split_leaf(bare, 3, 1)
        assert (lo_id, hi_id) == (8, 9)
        grown, lo_id, hi_id = split_leaf(grown, 9, 2)
        assert (lo_id, hi_id) == (10, 11)
        assert grown.leaf_ids() == [7, 8, 10, 11]

    def test_split_equals_whole_tree_rebuild(self):
        # over random split sequences, splitting along the leaf's path gives
        # the fresh identifiers, the tree, the leaf order, the leaf paths and
        # the refusal (missing leaf, repeated variable) that rebuilding and
        # revalidating the whole tree gives
        seen = dict.fromkeys(["split", "no leaf", "repeated"], 0)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 11))
            bare = ref = BareTree(BareLeaf(0))
            next_id = 1
            for _ in range(80):
                ids = bare.leaf_ids()
                leaf_id = int(rng.choice(ids)) if rng.random() < 0.9 else next_id
                args = (leaf_id, int(rng.integers(n)))
                grown = _outcome(split_leaf, bare, *args)
                expected = _outcome(_split_by_rebuild, ref, *args, next_id, next_id + 1)
                if isinstance(expected, BareTree):
                    assert grown == (expected, next_id, next_id + 1)
                    grown = grown[0]
                    assert grown.leaf_ids() == expected.leaf_ids()
                    assert leaf_paths(grown) == leaf_paths(expected)
                    assert grown._paths == BareTree(grown.root)._paths
                    bare, ref, next_id = grown, expected, next_id + 2
                    seen["split"] += 1
                else:
                    assert grown == expected
                    seen[next(kind for kind in seen if kind in expected[1])] += 1
        assert min(seen.values()) >= 20, seen

    def test_child_that_is_not_a_node_rejected(self):
        with pytest.raises(TreeFormatError, match="not a tree node"):
            DecisionTree(Internal(0, Leaf(1), "x"))
        with pytest.raises(TreeFormatError, match="not a tree node"):
            BareTree(Internal(0, BareLeaf(0), "x"))

    def test_nodes_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DICTATOR.root.var = 1  # type: ignore[misc]


def _split_by_rebuild(bare, leaf_id, var, lo_id, hi_id):
    """Reference split: swap the leaf by rebuilding the whole tree, then
    revalidate all of it."""
    fresh = Internal(var, BareLeaf(lo_id), BareLeaf(hi_id))
    if leaf_id not in bare.leaf_ids():
        raise KeyError(f"no leaf with identifier {leaf_id}")
    return BareTree(core._map_leaves(bare.root, lambda leaf: fresh if leaf.id == leaf_id else leaf))


def _outcome(split, *args):
    """The tree ``split(*args)`` returns, or the type and message it raises."""
    try:
        return split(*args)
    except (KeyError, TreeFormatError) as err:
        return type(err), str(err)


class TestTreeWalks:
    def test_leaf_paths_left_to_right(self):
        hi = Internal(0, Internal(1, BareLeaf(0), BareLeaf(2)), BareLeaf(1))
        bare = BareTree(Internal(2, BareLeaf(3), hi))
        assert leaf_paths(bare) == [
            (Restriction({2: 0}), BareLeaf(3)),
            (Restriction({2: 1, 0: 0, 1: 0}), BareLeaf(0)),
            (Restriction({2: 1, 0: 0, 1: 1}), BareLeaf(2)),
            (Restriction({2: 1, 0: 1}), BareLeaf(1)),
        ]
        assert bare.leaf_ids() == [3, 0, 2, 1]

    def test_no_cyclic_garbage(self):
        # a self-calling closure is a reference cycle that outlives its call
        target = generate_balanced_target(4, 6, np.random.default_rng(0))
        doc = serialize_tree(target)
        bare = BareTree(Internal(0, BareLeaf(0), Internal(1, BareLeaf(1), BareLeaf(2))))
        labels = dict.fromkeys(bare.leaf_ids(), 1)
        table = generate_truth_table(4, np.random.default_rng(0))
        dist = ProductDistribution([0.3] * 8)
        calls = {
            "leaf_paths": lambda: leaf_paths(target),
            "size": lambda: size(target),
            "DecisionTree": lambda: DecisionTree(target.root),
            "BareTree": lambda: BareTree(bare.root),
            "split_leaf": lambda: split_leaf(bare, 2, 2),
            "label_leaves": lambda: label_leaves(bare, labels),
            "parse_tree": lambda: parse_tree(doc),
            "TreeOracle": lambda: TreeOracle(target, 6),
            "generate_balanced_target": lambda: generate_balanced_target(
                4, 6, np.random.default_rng(1)
            ),
            "generate_path_target": lambda: generate_path_target(6, np.random.default_rng(1)),
            "generate_random_tree": lambda: generate_random_tree(6, 4, np.random.default_rng(1)),
            "_table_as_tree": lambda: _table_as_tree(table),
            "draw_codes": lambda: dist.draw_codes(np.random.default_rng(1), 3 * BLOCK),
            "route_groups": lambda: list(
                route_groups(target, dist.draw_codes(np.random.default_rng(1), 999))
            ),
            "route_codes": lambda: route_codes(  # fills and caches a fresh tree's table
                DecisionTree(target.root), dist.draw_codes(np.random.default_rng(1), 999)
            ),
            "build_topdown_practical": lambda: build_topdown_practical(
                TreeOracle(target, 6), ProductDistribution([0.3] * 6), 0.3, 0.2, 0, max_splits=3
            ),
        }
        gc.disable()
        try:
            gc.collect()
            left = {name: (call(), gc.collect())[1] for name, call in calls.items()}
        finally:
            gc.enable()
        assert left == dict.fromkeys(calls, 0)


class TestSerialization:
    def test_single_leaf_document(self):
        tree = parse_tree('{"leaf": 1}')
        assert isinstance(tree, DecisionTree) and tree.root == Leaf(1)

    def test_dictator_document(self):
        tree = parse_tree('{"var":0,"lo":{"leaf":-1},"hi":{"leaf":1}}')
        assert tree == DICTATOR

    def test_bare_leaf_document(self):
        tree = parse_tree('{"leaf": null, "id": 7}')
        assert isinstance(tree, BareTree) and tree.root == BareLeaf(7)

    def test_round_trip_depth3(self):
        doc = json.dumps(
            {
                "var": 2,
                "lo": {"var": 0, "lo": {"leaf": 1}, "hi": {"leaf": -1}},
                "hi": {
                    "var": 1,
                    "lo": {"leaf": -1},
                    "hi": {"var": 0, "lo": {"leaf": 1}, "hi": {"leaf": -1}},
                },
            }
        )
        tree = parse_tree(doc)
        assert parse_tree(serialize_tree(tree)) == tree
        # canonical whitespace normalization: compact separators
        assert serialize_tree(tree) == json.dumps(json.loads(doc), separators=(",", ":"))

    def test_malformed_documents(self):
        for doc in ("{", "[1,2]", '{"leaf": 2}', '{"var": 0, "lo": {"leaf": 1}}',
                    '{"leaf": null}', '{"var": "x", "lo": {"leaf":1}, "hi": {"leaf":1}}',
                    '{"var":0,"lo":{"leaf":null,"id":true},"hi":{"leaf":null,"id":2}}',
                    '{"leaf": null, "id": false}', '{"leaf": true}', '{"leaf": 1.0}',
                    '{"leaf": -1.0}'):
            with pytest.raises(TreeFormatError):
                parse_tree(doc)

    def test_mixed_leaves_rejected(self):
        with pytest.raises(TreeFormatError):
            parse_tree('{"var":0,"lo":{"leaf":1},"hi":{"leaf":null,"id":0}}')
        with pytest.raises(TreeFormatError):
            parse_tree('{"var":0,"lo":{"leaf":null,"id":0},"hi":{"leaf":1}}')

    def test_repeated_variable_rejected(self):
        with pytest.raises(TreeFormatError):
            parse_tree('{"var":0,"lo":{"leaf":1},"hi":{"var":0,"lo":{"leaf":1},"hi":{"leaf":-1}}}')

    def test_index_out_of_range_with_n(self):
        with pytest.raises(TreeFormatError):
            parse_tree('{"var":3,"lo":{"leaf":1},"hi":{"leaf":-1}}', n=2)

    def test_distribution_round_trip(self):
        dist = ProductDistribution([0.3, 0.5, 0.9])
        assert parse_distribution(serialize_distribution(dist)) == dist

    def test_distribution_rejects_degenerate(self):
        with pytest.raises(TreeFormatError):
            parse_distribution('{"biases": [0.0, 0.5]}')

    @pytest.mark.parametrize("doc", ['{"biases": [null]}', '{"biases": [[0.5]]}'])
    def test_distribution_rejects_non_numbers(self, doc):
        with pytest.raises(TreeFormatError, match="float"):
            parse_distribution(doc)

    @pytest.mark.parametrize("bias", ['"0.25"', "true", "false"])
    def test_distribution_names_a_non_number_bias(self, bias):
        # a string bias used to be read as its number, a bool as 1.0 or 0.0
        with pytest.raises(TreeFormatError, match="at coordinate 1 is not a JSON number"):
            parse_distribution(f'{{"biases": [0.5, {bias}]}}')

    def test_distribution_refuses_a_bias_past_float_range(self):
        with pytest.raises(TreeFormatError, match="too large"):
            parse_distribution('{"biases": [0.5, 1' + '0' * 400 + ']}')

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_random_trees(self, seed):
        tree = generate_random_tree(5, 4, np.random.default_rng(seed))
        assert parse_tree(serialize_tree(tree)) == tree


class TestPacking:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
    def test_pack_unpack_round_trip(self, bits):
        arr = np.array([bits], dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(arr), len(bits)), arr)


    @pytest.mark.parametrize("bit", [2, -1, 0.5])
    def test_refuses_an_entry_outside_zero_one(self, bit):
        tree = DecisionTree(Internal(1, Leaf(-1), Leaf(1)))
        for x in ([[bit, 0]], np.array([[0, 1], [bit, 0]])):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                pack_bits(x)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            TreeOracle(tree, 2).label([bit, 0])

    def test_accepts_bool_and_uint8(self):
        for dtype in (bool, np.uint8):
            codes = pack_bits(np.array([[1, 0, 1], [0, 1, 1]], dtype=dtype))
            assert codes.dtype == np.uint64 and codes.tolist() == [5, 6]


class TestOracles:
    def test_tree_oracle_matches_route(self):
        oracle = TreeOracle(DEPTH2, 2)
        for code in range(4):
            x = unpack_bits(np.array([code], dtype=np.uint64), 2)[0]
            assert oracle.label(x) == route(DEPTH2, x)

    def test_label_refuses_a_point_of_another_length(self):
        tree = DecisionTree(Internal(3, Leaf(-1), Leaf(1)))
        tree_oracle = TreeOracle(tree, 8)
        table_oracle = TruthTableOracle(tree_oracle.label_codes(np.arange(256, dtype=np.uint64)))
        for oracle in (tree_oracle, table_oracle):
            counted = CountingOracle(oracle)
            for o in (oracle, counted):
                assert o.label([0, 0, 0, 1, 0, 0, 0, 0]) == 1
                for x in ([0, 1], [0, 0, 0, 1] + [0] * 6, [], [[0] * 8]):
                    with pytest.raises(ValueError, match=r"not \(8,\)"):
                        o.label(x)
            assert counted.queries == 1

    def test_tree_oracle_dimension_check(self):
        with pytest.raises(ValueError):
            TreeOracle(DEPTH2, 1)

    @staticmethod
    def _trees(n: int, rng: np.random.Generator) -> list[DecisionTree]:
        """Constant, balanced, path and random trees, plus dictators on the
        lowest and highest coordinate; most of them skip variables."""
        return [
            DecisionTree(Leaf(1)),
            DecisionTree(Leaf(-1)),
            DecisionTree(Internal(0, Leaf(1), Leaf(-1))),
            DecisionTree(Internal(n - 1, Leaf(-1), Leaf(1))),
            generate_balanced_target(min(n, 4), n, rng),
            generate_path_target(n, rng),
            generate_random_tree(n, min(n, 6), rng),
            generate_random_tree(n, min(n, 6), rng),
        ]

    def _assert_labels_route(self, n: int, codes: np.ndarray, rng: np.random.Generator) -> None:
        for tree in self._trees(n, rng):
            oracle = TreeOracle(tree, n)
            got = oracle.label_codes(codes)
            want = route_codes(tree, codes).astype(np.int8)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            # Repeated calls answer from the same table.
            assert np.array_equal(oracle.label_codes(codes[::-1]), want[::-1])

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_table_labels_equal_routing_on_every_code(self, n):
        self._assert_labels_route(n, np.arange(1 << n, dtype=np.uint64), np.random.default_rng(n))

    @pytest.mark.parametrize("n", [TABLE_MAX_COORDS, TABLE_MAX_COORDS + 1, 64])
    def test_labels_equal_routing_on_sampled_codes(self, n):
        rng = np.random.default_rng(n)
        codes = ProductDistribution([0.3] * n).draw_codes(rng, 20_000)
        self._assert_labels_route(n, codes, rng)

    def test_counting_oracle_counts_only_passed_codes(self):
        tree = generate_random_tree(12, 6, np.random.default_rng(0))
        oracle = CountingOracle(TreeOracle(tree, 12))
        oracle.label_codes(np.arange(10, dtype=np.uint64))
        assert oracle.queries == 10
        oracle.label_codes(np.arange(5, dtype=np.uint64))
        assert oracle.queries == 15

    def test_top_coordinate_of_64(self):
        dist = ProductDistribution([0.5] * 64)
        oracle = TreeOracle(DecisionTree(Internal(63, Leaf(-1), Leaf(1))), 64)
        codes = dist.draw_codes(np.random.default_rng(0), 1000)
        labels = oracle.label_codes(codes)
        assert set(labels.tolist()) == {-1, 1}
        assert np.array_equal(labels > 0, (codes >> np.uint64(63)) == 1)

    @pytest.mark.parametrize("n", [TABLE_MAX_COORDS, TABLE_MAX_COORDS + 1, 63])
    def test_tree_oracle_refuses_a_bit_at_or_above_n(self, n):
        # the dense table (n <= 24) and the walk (n > 24) refuse by one rule
        oracle = TreeOracle(generate_balanced_target(3, n, np.random.default_rng(0)), n)
        assert oracle.label_codes(np.array([0, (1 << n) - 1], dtype=np.uint64)).shape == (2,)
        for bit in sorted({n, 40, 63} - set(range(n))):
            with pytest.raises(IndexError):
                oracle.label_codes(np.array([0, 1 << bit, 1], dtype=np.uint64))

    def test_tree_oracle_at_64_labels_every_code(self):
        tree = generate_balanced_target(3, 64, np.random.default_rng(0))
        codes = np.array([0, (1 << 64) - 1], dtype=np.uint64)
        labels = TreeOracle(tree, 64).label_codes(codes)
        assert np.array_equal(labels, route_codes(tree, codes).astype(np.int8))

    def test_dimension_above_64_refused(self):
        with pytest.raises(ValueError, match="at most 64 coordinates"):
            ProductDistribution([0.5] * 65)
        with pytest.raises(ValueError, match="at most 64 coordinates"):
            TreeOracle(DICTATOR, 65)

    def test_truth_table_oracle(self):
        table = np.array([1, -1, -1, 1], dtype=np.int8)
        oracle = TruthTableOracle(table)
        assert oracle.n == 2
        assert oracle.label([1, 0]) == -1

    def test_truth_table_refuses_codes_past_its_end(self):
        # labels come from an int64 view of the codes, where 2^63 and up
        # read as negative indices; each still raises
        oracle = TruthTableOracle(generate_truth_table(6, np.random.default_rng(0)).table)
        for code in (1 << 6, 1 << 63, (1 << 64) - 1):
            with pytest.raises(IndexError):
                oracle.label_codes(np.array([0, code, 1], dtype=np.uint64))
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 1 << 6, size=5000, dtype=np.uint64)
        labels = oracle.label_codes(codes)
        assert labels.dtype == np.int8 and np.array_equal(labels, oracle.table[codes])
        assert np.array_equal(oracle.label_codes(codes[::-3]), oracle.table[codes[::-3]])
        assert oracle.label_codes(np.empty(0, dtype=np.uint64)).shape == (0,)

    def test_truth_table_validation(self):
        with pytest.raises(ValueError):
            TruthTableOracle(np.array([1, -1, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            TruthTableOracle(np.array([1, 0], dtype=np.int8))
