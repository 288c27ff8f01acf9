"""Exact engine against independent brute-force oracles.

The influence closed form (2p(1-p) times the completion-disagreement
probability) is checked against a from-scratch enumeration of the defining
probability Pr[f(x) != f(x')] over every point and every redrawn bit.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedytree import core
from greedytree.core import (
    BareLeaf,
    BareTree,
    CompiledLeaves,
    CountingOracle,
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    Restriction,
    TreeOracle,
    TruthTableOracle,
    leaf_paths,
    route,
    split_leaf,
)
from greedytree.greedy import build_topdown_exact
from greedytree.exact import (
    EnumerationLimitError,
    LeafInfo,
    SubfunctionSummary,
    SubfunctionView,
    _codes,
    _leaf,
    _piece_table,
    _pairs_fit,
    _row_weights,
    _tally,
    _weights,
    cost,
    f_completion,
    leaf_info,
    positive_mass,
    split_children,
    subfunction_summary,
    tree_error,
)
from greedytree.targets import (
    generate_balanced_target,
    generate_path_target,
    generate_random_tree,
    generate_truth_table,
)
from greedytree.verify import IDENTITY_TOL, _table_as_tree, generate_instance

UNIFORM2 = ProductDistribution([0.5, 0.5])
DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))
AND2 = DecisionTree(Internal(0, Leaf(-1), Internal(1, Leaf(-1), Leaf(1))))
PARITY2 = DecisionTree(Internal(0, Internal(1, Leaf(-1), Leaf(1)), Internal(1, Leaf(1), Leaf(-1))))
CONST2 = DecisionTree(Leaf(1))


def oracle_of(tree: DecisionTree, n: int) -> TreeOracle:
    return TreeOracle(tree, n)


def definitional_influence(label, n, biases, i, fixed=None):
    """Pr[f(x) != f(x with coordinate i redrawn)] by exhaustive enumeration
    over (x, redrawn bit) pairs, conditioned on ``fixed``; written without
    the closed form on purpose."""
    fixed = dict(fixed or {})
    total = 0.0
    mass = 0.0
    for x in itertools.product((0, 1), repeat=n):
        if any(x[k] != v for k, v in fixed.items()):
            continue
        px = 1.0
        for k in range(n):
            if k in fixed:
                continue
            px *= biases[k] if x[k] else 1.0 - biases[k]
        mass += px
        for b in (0, 1):
            pb = biases[i] if b else 1.0 - biases[i]
            y = list(x)
            y[i] = b
            if label(x) != label(tuple(y)):
                total += px * pb
    assert abs(mass - 1.0) < 1e-12
    return total


def summary_of(tree: DecisionTree, dist: ProductDistribution, fixed=None):
    view = SubfunctionView(oracle_of(tree, dist.n), Restriction(fixed or {}))
    return subfunction_summary(view, dist)


class TestInfluence:
    def test_constant_function(self):
        s = summary_of(CONST2, UNIFORM2)
        assert s.influences[0] == 0.0
        assert s.influences[1] == 0.0

    def test_dictator_uniform(self):
        assert summary_of(DICTATOR, UNIFORM2).influences[0] == pytest.approx(0.5, abs=1e-15)

    def test_and_uniform(self):
        # disagreement between the two settings of x_0 only when x_1 = 1
        assert summary_of(AND2, UNIFORM2).influences[0] == pytest.approx(0.25, abs=1e-15)

    def test_restricted_coordinate_is_exactly_zero(self):
        s = summary_of(AND2, UNIFORM2, {0: 1})
        assert s.influences[0] == 0.0
        assert s.flip_influences[0] == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            vals = subfunction_summary(SubfunctionView(oracle), dist).influences
            assert np.all(vals >= 0.0) and np.all(vals <= 0.5 + 1e-15)

    def test_closed_form_equals_definitional_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))

            def label(x):
                return oracle.label(list(x))

            vals = subfunction_summary(SubfunctionView(oracle), dist).influences
            for i in range(n):
                expected = definitional_influence(label, n, dist.biases, i)
                assert vals[i] == pytest.approx(expected, abs=1e-12)

    def test_closed_form_equals_definitional_under_restriction(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            fixed = {0: int(rng.integers(2))}
            vals = subfunction_summary(SubfunctionView(oracle, Restriction(fixed)), dist).influences

            def label(x):
                return oracle.label(list(x))

            for i in range(1, n):
                expected = definitional_influence(label, n, dist.biases, i, fixed)
                assert vals[i] == pytest.approx(expected, abs=1e-12)

    def test_flip_influence_drops_the_rerandomization_factor(self):
        s = summary_of(DICTATOR, ProductDistribution([0.3, 0.5]))
        assert s.flip_influences[0] == pytest.approx(1.0, abs=1e-15)
        assert s.influences[0] == pytest.approx(2 * 0.3 * 0.7, abs=1e-15)


class TestTotalInfluence:
    def test_constant(self):
        assert summary_of(CONST2, UNIFORM2).total_influence == 0.0

    def test_dictator(self):
        assert summary_of(DICTATOR, UNIFORM2).total_influence == pytest.approx(0.5)

    def test_parity(self):
        assert summary_of(PARITY2, UNIFORM2).total_influence == pytest.approx(1.0)


class TestVarianceAndError:
    def test_constant(self):
        s = summary_of(CONST2, UNIFORM2)
        assert s.variance == 0.0
        assert s.error == 0.0

    def test_balanced_dictator(self):
        s = summary_of(DICTATOR, UNIFORM2)
        assert s.variance == pytest.approx(1.0, abs=1e-15)
        assert s.error == pytest.approx(0.5, abs=1e-15)

    def test_biased_dictator(self):
        s = summary_of(DICTATOR, ProductDistribution([0.3, 0.5]))
        assert s.variance == pytest.approx(0.84, abs=1e-15)
        assert s.error == pytest.approx(0.3, abs=1e-15)

    def test_variance_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            view = SubfunctionView(oracle)
            mu = positive_mass(view, dist)
            s = subfunction_summary(view, dist)
            assert s.positive_mass == mu
            assert s.variance == pytest.approx(1 - (2 * mu - 1) ** 2, abs=1e-12)


class TestScore:
    def test_dictator_root(self):
        info = leaf_info(oracle_of(DICTATOR, 2), UNIFORM2, Restriction())
        assert info.score == pytest.approx(0.5, abs=1e-15)
        assert info.coord == 0

    def test_constant_subfunction_reports_lowest_free_coordinate(self):
        info = leaf_info(oracle_of(CONST2, 2), UNIFORM2, Restriction())
        assert info.score == 0.0
        assert info.coord == 0

    def test_parity_tie_breaks_to_lowest_coordinate(self):
        info = leaf_info(oracle_of(PARITY2, 2), UNIFORM2, Restriction())
        assert info.score == pytest.approx(0.5, abs=1e-15)
        assert info.coord == 0

    def test_no_free_coordinate_reports_minus_one(self):
        info = leaf_info(oracle_of(AND2, 2), UNIFORM2, Restriction({0: 1, 1: 1}))
        assert (info.score, info.coord, info.leaf_cost) == (0.0, -1, 0.0)
        assert (info.summary.positive_mass, info.error_mass) == (1.0, 0.0)

    def test_fields_equal_definitional_values(self):
        # reach, score and cost against the from-scratch influence
        # enumeration; the chosen coordinate is a largest-influence one
        rng = np.random.default_rng(29)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            fixed = {0: int(rng.integers(2))}
            info = leaf_info(oracle, dist, Restriction(fixed))

            def label(x):
                return oracle.label(list(x))

            reach = dist.biases[0] if fixed[0] else 1.0 - dist.biases[0]
            infl = [definitional_influence(label, n, dist.biases, i, fixed) for i in range(1, n)]
            assert info.reach == pytest.approx(reach, abs=1e-15)
            assert info.score == pytest.approx(reach * max(infl), abs=1e-12)
            assert infl[info.coord - 1] == pytest.approx(max(infl), abs=1e-12)
            assert info.leaf_cost == pytest.approx(reach * sum(infl), abs=1e-12)
            mu = positive_mass(SubfunctionView(oracle, Restriction(fixed)), dist)
            assert info.summary.positive_mass == mu
            assert info.error_mass == pytest.approx(reach * min(mu, 1 - mu), abs=1e-15)


def shift_enumeration(view, dist):
    """Codes and weights by setting bit t of every index at ``free[t]``, one
    shift/and/or pass per free coordinate."""
    free = view.free_coords()
    k = np.arange(1 << len(free), dtype=np.uint64)
    codes = np.full(len(k), view.restriction.base_code(), dtype=np.uint64)
    weights = np.ones(1)
    for t, i in enumerate(free):
        codes |= ((k >> np.uint64(t)) & np.uint64(1)) << np.uint64(i)
        p = dist.biases[i]
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    return free, codes, weights


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 5, 12, 64])
    def test_codes_and_weights_equal_the_shift_formula(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            m = int(rng.integers(0, min(n, 10) + 1))
            free = sorted(int(i) for i in rng.choice(n, size=m, replace=False))
            fixed = {i: int(rng.integers(2)) for i in range(n) if i not in free}
            view = SubfunctionView(TreeOracle(CONST2, n), Restriction(fixed))
            dist = ProductDistribution(rng.uniform(0.05, 0.95, n))
            codes, weights = _codes(view, dist), _weights(dist, view.free_coords())
            want_free, want_codes, want_weights = shift_enumeration(view, dist)
            assert want_free == free
            assert codes.dtype == want_codes.dtype and codes.tobytes() == want_codes.tobytes()
            assert weights.dtype == want_weights.dtype
            assert weights.tobytes() == want_weights.tobytes()


SPLIT_BIASES = {
    "uniform": lambda n, rng: [0.5] * n,
    "skewed": lambda n, rng: [0.1] * n,
    "mixed": lambda n, rng: list(rng.uniform(0.05, 0.95, n)),
}


def split_oracle(kind: str, n: int, rng):
    if kind == "tree":
        return TreeOracle(generate_random_tree(n, 5, rng), n)
    if kind == "table":
        return generate_truth_table(n, rng)
    return CountingOracle(TreeOracle(generate_random_tree(n, 5, rng), n))


def same_arrays(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def node_rows(pieces) -> list:
    """A node's rows of its piece table, one array per row field, then the
    table's 2 p (1 - p) column, which every node reads whole."""
    rows = [getattr(pieces, name)[pieces.rows] for name in ("req0", "req1", "coord", "factors")]
    return rows + [pieces.two_pq]


def assert_same_leaf(got: LeafInfo, want: LeafInfo):
    """Every field equal, and every field of the kept summaries, arrays byte
    for byte; ``labels`` on enumeration and ``pieces`` on leaf pairs, the
    other None on both.  Two handles are equal when the rows their nodes
    keep are, whichever table holds them."""
    for f in dataclasses.fields(LeafInfo):
        if f.name != "summary":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    for f in dataclasses.fields(SubfunctionSummary):
        a, b = getattr(got.summary, f.name), getattr(want.summary, f.name)
        if f.name == "pieces" and a is not None:
            assert all(same_arrays(x, y) for x, y in zip(node_rows(a), node_rows(b), strict=True))
        elif isinstance(a, np.ndarray):
            assert same_arrays(a, b), f.name
        else:
            assert a == b, f.name


class TestSplitChildren:
    """Children derived from the parent's labels equal a fresh ``leaf_info``."""

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("bias", sorted(SPLIT_BIASES))
    @pytest.mark.parametrize("kind", ["tree", "table", "counting"])
    def test_children_equal_fresh_leaf_info(self, kind, bias, position):
        rng = np.random.default_rng([len(kind), len(bias), len(position)])
        n = 8
        oracle = split_oracle(kind, n, rng)
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        parent = leaf_info(oracle, dist, Restriction({3: 1}))
        free = [0, 1, 2, 4, 5, 6, 7]
        coord = {"first": free[0], "middle": free[3], "last": free[-1]}[position]
        before = getattr(oracle, "queries", None)
        children = split_children(dataclasses.replace(parent, coord=coord), dist)
        assert getattr(oracle, "queries", None) == before  # no point labeled again
        for b, child in enumerate(children):
            assert_same_leaf(child, leaf_info(oracle, dist, parent.restriction.extend(coord, b)))

    @pytest.mark.parametrize("kind", ["tree", "table", "counting"])
    def test_repeated_splits_down_to_single_points(self, kind):
        rng = np.random.default_rng(41)
        n = 6
        oracle = split_oracle(kind, n, rng)
        dist = ProductDistribution(rng.uniform(0.05, 0.95, n))
        live = [leaf_info(oracle, dist, Restriction())]
        while live:
            info = live.pop()
            free = [i for i in range(n) if i not in info.restriction]
            if not free:
                assert len(info.summary.labels) == 1
                continue
            coord = int(rng.choice(free))
            for b, child in enumerate(split_children(dataclasses.replace(info, coord=coord), dist)):
                assert_same_leaf(child, leaf_info(oracle, dist, info.restriction.extend(coord, b)))
                live.append(child)


def random_restriction(n: int, rng) -> Restriction:
    coords = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    return Restriction({int(i): int(rng.integers(2)) for i in coords})


def piece_summary(dist, restriction, leaves) -> SubfunctionSummary:
    """The summary of the restriction from a fresh piece table of ``leaves``."""
    pieces = _piece_table(dist, restriction, leaves)
    return _tally(pieces, _row_weights(pieces, restriction))


def pair_leaf(oracle, dist, restriction) -> LeafInfo:
    """``leaf_info`` on the leaf-pair path, whichever path the rule names."""
    free = [i for i in range(dist.n) if i not in restriction]
    summary = piece_summary(dist, restriction, oracle.compiled_leaves())
    return _leaf(dist, restriction, free, summary)


class TestLeafPairs:
    """Leaf-pair summaries against enumeration, and the rule between them."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["tree", "balanced", "path"]),
        bias=st.sampled_from(["uniform", "fixed", "random"]),
    )
    def test_summary_equals_enumeration(self, seed, kind, bias):
        inst = generate_instance(seed, max_n=12, kinds=(kind,), bias_kinds=(bias,))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            r = random_restriction(inst.dist.n, rng)
            got = piece_summary(inst.dist, r, inst.oracle.compiled_leaves())
            want = subfunction_summary(SubfunctionView(inst.oracle, r), inst.dist)
            assert got.positive_mass == pytest.approx(want.positive_mass, rel=1e-12, abs=0)
            for form in ("influences", "flip_influences"):
                values = getattr(got, form)
                np.testing.assert_allclose(values, getattr(want, form), rtol=1e-12, atol=0)
                assert all(values[i] == 0.0 for i in r.coordinates())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["tree", "balanced", "path"]))
    def test_children_equal_fresh_pair_leaves(self, seed, kind):
        inst = generate_instance(seed, max_n=12, kinds=(kind,))
        rng = np.random.default_rng(seed)
        info = pair_leaf(inst.oracle, inst.dist, Restriction())
        while len(info.restriction) < inst.dist.n:
            free = [i for i in range(inst.dist.n) if i not in info.restriction]
            coord = int(rng.choice(free))
            children = split_children(dataclasses.replace(info, coord=coord), inst.dist)
            for b, child in enumerate(children):
                fresh = pair_leaf(inst.oracle, inst.dist, info.restriction.extend(coord, b))
                assert_same_leaf(child, fresh)
            info = children[int(rng.integers(2))]
        # one point is left: one +1 piece if it is labeled +1, else none
        point = np.array([info.restriction.base_code()], dtype=np.uint64)
        assert len(info.summary.pieces.rows) == int(inst.oracle.label_codes(point)[0] > 0)

    def test_rule_compares_pairs_times_n_with_the_enumeration(self):
        # ordered label-differing pairs: 2 for the dictator, 4 for AND2
        assert _pairs_fit(TreeOracle(DICTATOR, 2).compiled_leaves(), 2)  # 2 * 2 == 2^2
        assert not _pairs_fit(TreeOracle(AND2, 3).compiled_leaves(), 3)  # 4 * 3 > 2^3
        assert _pairs_fit(TreeOracle(AND2, 4).compiled_leaves(), 4)  # 4 * 4 == 2^4
        assert _pairs_fit(TreeOracle(CONST2, 2).compiled_leaves(), 2)
        assert generate_truth_table(3, np.random.default_rng(0)).compiled_leaves() is None

    def test_leaf_info_takes_the_path_the_rule_names(self):
        rng = np.random.default_rng(5)
        n = 8
        table = generate_truth_table(n, rng)
        complete = CountingOracle(TreeOracle(_table_as_tree(table), n))
        small = CountingOracle(TreeOracle(generate_balanced_target(2, n, rng), n))
        dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
        r = Restriction({2: 1})
        enumerated, paired = leaf_info(complete, dist, r), leaf_info(small, dist, r)
        assert enumerated.summary.pieces is None and complete.queries == 1 << (n - 1)
        assert_same_leaf(enumerated, leaf_info(table, dist, r))
        assert paired.summary.labels is None and small.queries == 0
        assert small.inner._table is None
        assert_same_leaf(paired, pair_leaf(small, dist, r))

    def test_underflowed_influence_reads_its_weight_in_the_child(self):
        # TestPairlessCoordinates' case on leaf pairs: f = +1 only at x = 111,
        # and the pair across coordinate 2 weighs 1e-200 * 1e-200, which
        # underflows; with x0 = 1 fixed it weighs 1e-200
        and3 = DecisionTree(
            Internal(0, Leaf(-1), Internal(1, Leaf(-1), Internal(2, Leaf(-1), Leaf(1))))
        )
        oracle = TreeOracle(and3, 3)
        dist = ProductDistribution([1e-200, 1e-200, 0.5])
        root = pair_leaf(oracle, dist, Restriction())
        assert root.summary.flip_influences[2] == 0.0
        _, hi = split_children(dataclasses.replace(root, coord=0), dist)
        assert hi.summary.flip_influences[2] == 1e-200

    def test_leaf_info_refuses_other_dimensions_and_wide_restrictions(self, monkeypatch):
        monkeypatch.setattr("greedytree.exact.MAX_FREE_COORDS", 4)
        oracle = CountingOracle(TreeOracle(DICTATOR, 5))
        assert _pairs_fit(oracle.compiled_leaves(), 5)
        with pytest.raises(ValueError, match="oracle has n=5, distribution has n=2"):
            leaf_info(oracle, UNIFORM2, Restriction())
        with pytest.raises(EnumerationLimitError):
            leaf_info(oracle, ProductDistribution([0.5] * 5), Restriction())
        leaf_info(oracle, ProductDistribution([0.5] * 5), Restriction({0: 1}))
        assert oracle.queries == 0


def reference_piece_weights(dist, masks, values):
    """Probability of each subcube {x : x & mask == value & mask}."""
    shifts = np.arange(dist.n, dtype=np.uint64)
    fixed = ((masks[:, None] >> shifts) & np.uint64(1)) != 0
    ones = ((values[:, None] >> shifts) & np.uint64(1)) != 0
    p = np.asarray(dist.biases)
    return np.where(fixed, np.where(ones, p, 1.0 - p), 1.0).prod(axis=1)


def reference_pair_summary(dist, restriction, leaves):
    """The conflict-matrix kernel the piece table replaced: every node
    filters the target's leaves and rebuilds its +1 x -1 conflict matrix."""
    fixed_mask = np.uint64(sum(1 << i for i in restriction.coordinates()))
    keep = ((leaves.value ^ np.uint64(restriction.base_code())) & leaves.mask & fixed_mask) == 0
    leaves = CompiledLeaves(*(a[keep] for a in leaves))
    plus = leaves.label > 0
    pm, pv = leaves.mask[plus], leaves.value[plus]
    nm, nv = leaves.mask[~plus], leaves.value[~plus]
    conflict = (pv[:, None] ^ nv) & pm[:, None] & nm
    a, b = np.nonzero((conflict & (conflict - np.uint64(1))) == 0)
    bit = conflict[a, b]
    masks = np.concatenate([pm, (pm[a] | nm[b]) & ~bit]) & ~fixed_mask
    weights = reference_piece_weights(dist, masks, np.concatenate([pv, pv[a] | nv[b]]))
    coords = np.frexp(bit.astype(np.float64))[1] - 1
    flip = np.bincount(coords, weights=weights[len(pm):], minlength=dist.n)
    p = np.asarray(dist.biases)
    return float(np.sum(weights[:len(pm)])), 2.0 * p * (1.0 - p) * flip, flip


def piece_target(kind: str, n: int, rng) -> DecisionTree:
    if kind == "tree":
        return generate_random_tree(n, min(n, 6), rng)
    if kind == "balanced":
        return generate_balanced_target(min(n, int(rng.integers(1, 7))), n, rng)
    return generate_path_target(n, rng)


def assert_equals_reference(dist, info: LeafInfo, leaves):
    """The leaf's kept summary equals the old kernel's bit for bit."""
    got = info.summary
    mass, infl, flip = reference_pair_summary(dist, info.restriction, leaves)
    assert got.positive_mass == mass
    assert same_arrays(got.influences, infl)
    assert same_arrays(got.flip_influences, flip)


PIECE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    kind=st.sampled_from(["tree", "balanced", "path"]),
    bias=st.sampled_from(sorted(SPLIT_BIASES)),
)


class TestPieceTable:
    """Summaries read from one piece table equal the conflict-matrix kernel
    bit for bit, and the builder's choices keep their tie rules."""

    @settings(max_examples=80, deadline=None)
    @given(**PIECE_CASES)
    def test_every_node_of_a_build_equals_the_old_kernel(self, seed, n, kind, bias):
        rng = np.random.default_rng(seed)
        oracle = TreeOracle(piece_target(kind, n, rng), n)
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        result = build_topdown_exact(oracle, dist, epsilon=0.01, max_splits=64)
        # the build's splits, replayed on leaf pairs whichever path it took
        live = [(result.bare.root, pair_leaf(oracle, dist, Restriction()))]
        while live:
            node, info = live.pop()
            assert_equals_reference(dist, info, oracle.compiled_leaves())
            if isinstance(node, Internal):
                lo, hi = split_children(dataclasses.replace(info, coord=node.var), dist)
                live += [(node.lo, lo), (node.hi, hi)]

    @settings(max_examples=80, deadline=None)
    @given(**PIECE_CASES)
    def test_split_chains_down_to_points_equal_the_old_kernel(self, seed, n, kind, bias):
        rng = np.random.default_rng(seed)
        oracle = TreeOracle(piece_target(kind, n, rng), n)
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        info = pair_leaf(oracle, dist, Restriction())
        assert_equals_reference(dist, info, oracle.compiled_leaves())
        while len(info.restriction) < n:
            free = [i for i in range(n) if i not in info.restriction]
            children = split_children(dataclasses.replace(info, coord=int(rng.choice(free))), dist)
            for child in children:
                assert_equals_reference(dist, child, oracle.compiled_leaves())
            info = children[int(rng.integers(2))]

    @pytest.mark.parametrize("n", [3, 8])  # enumeration at 3, leaf pairs at 8
    def test_tied_scores_go_to_the_lowest_leaf_id(self, n):
        parity3 = DecisionTree(Internal(0, *(
            Internal(1, Internal(2, Leaf(s), Leaf(-s)), Internal(2, Leaf(-s), Leaf(s)))
            for s in (-1, 1)
        )))
        oracle = TreeOracle(parity3, n)
        assert _pairs_fit(oracle.compiled_leaves(), n) == (n == 8)
        dist = ProductDistribution([0.5] * n)
        result = build_topdown_exact(oracle, dist, epsilon=0.01)
        live = {0: leaf_info(oracle, dist, Restriction())}
        bare, ties = BareTree(BareLeaf(0)), 0
        for step in result.steps:
            best = min(live, key=lambda lid: (-live[lid].score, lid))
            info = live.pop(best)
            ties += any(other.score == info.score for other in live.values())
            assert (step.leaf_id, step.coord, step.score) == (best, info.coord, info.score)
            bare, lo, hi = split_leaf(bare, best, info.coord)
            live[lo], live[hi] = split_children(info, dist)
        assert result.terminated and result.bare == bare
        assert ties >= 3

    @pytest.mark.parametrize("kind", ["tree", "table"])
    def test_all_zero_free_influences_pick_the_lowest_free_coordinate(self, kind):
        # AND2 is -1 wherever x0 = 0: every influence there is 0, the fixed x0's too
        n = 4
        oracle = TreeOracle(AND2, n)
        assert _pairs_fit(oracle.compiled_leaves(), n)
        if kind == "table":
            oracle = TruthTableOracle(oracle.label_codes(np.arange(1 << n, dtype=np.uint64)))
        dist = ProductDistribution([0.3, 0.6, 0.2, 0.7])
        for fixed, lowest in (({0: 0}, 1), ({0: 0, 1: 1}, 2), ({0: 0, 2: 1}, 1)):
            info = leaf_info(oracle, dist, Restriction(fixed))
            assert (info.coord, info.score, info.leaf_cost) == (lowest, 0.0, 0.0)
            assert (info.summary.pieces is None) == (kind == "table")

    @pytest.mark.parametrize("kind", ["tree", "table"])
    def test_leaf_with_no_free_coordinate_refuses_to_split(self, kind):
        dictator = TreeOracle(DecisionTree(Internal(0, Leaf(-1), Leaf(1))), 1)
        oracle = dictator if kind == "tree" else TruthTableOracle(np.array([-1, 1]))
        dist = ProductDistribution([0.3])
        fixed = leaf_info(oracle, dist, Restriction({0: 1}))
        child, _ = split_children(leaf_info(oracle, dist, Restriction()), dist)
        for info in (fixed, child):
            assert info.coord == -1 and (info.summary.pieces is None) == (kind == "table")
            with pytest.raises(ValueError, match="has no free coordinate to split"):
                split_children(info, dist)

    def test_table_build_peaks_near_what_it_keeps(self):
        """The bound: a table keeps 8n bytes of factors a piece and 32 of
        other columns.  Building it holds on top one bool (pieces x n)
        matrix, n bytes a piece, and a few 8-byte columns, so at n = 64 its
        traced peak is about (9n + 32 + 8k) / (8n + 32) = 1.12 + 0.015k of
        what it keeps, for k such columns (1.17 measured).  Bit matrices
        taken from uint64 shifts add 8n bytes a piece each (2.2x)."""
        n = 64
        leaves = TreeOracle(
            generate_balanced_target(10, n, np.random.default_rng(0)), n
        ).compiled_leaves()
        dist = ProductDistribution([0.1] * n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = _piece_table(dist, Restriction(), leaves)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in table if isinstance(a, np.ndarray))
        assert len(table.rows) == 159_965 and table.factors.nbytes == 159_965 * n * 8
        assert peak <= 1.25 * kept
        # the factors are those of the bit tests on uint64 shifts, byte for byte
        shifts, p = np.arange(n, dtype=np.uint64), np.asarray(dist.biases)
        for rows in np.array_split(table.rows, 16):
            fixed = (((table.req0 ^ table.req1)[rows, None] >> shifts) & np.uint64(1)) != 0
            ones = ((table.req1[rows, None] >> shifts) & np.uint64(1)) != 0
            want = np.where(fixed, np.where(ones, p, 1.0 - p), 1.0)
            assert same_arrays(table.factors[rows], want)

    def test_split_gathers_the_parent_rows_in_blocks(self, monkeypatch):
        """A split gathers the parent's factor rows a block of at most
        ``_GATHER_BYTES`` at a time, so at depth 8, n = 64 (12,484 pieces, a
        6.10 MiB table) its traced peak stays under half the table; one
        gather of all rows peaked above the whole table.  A row's product
        does not depend on its block, so the weights are bit-identical."""
        monkeypatch.setattr("greedytree.exact.MAX_FREE_COORDS", 64)
        n = 64
        oracle = TreeOracle(generate_balanced_target(8, n, np.random.default_rng(0)), n)
        dist = ProductDistribution([0.1] * n)
        root = leaf_info(oracle, dist, Restriction())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            children = split_children(root, dist)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        pieces = root.summary.pieces
        assert len(pieces.rows) == 12_484 and pieces.factors.nbytes == 12_484 * n * 8
        assert peak < pieces.factors.nbytes / 2
        whole = pieces.factors[pieces.rows]
        whole[:, root.coord] = 1.0
        want = whole.prod(axis=1)
        child = root.restriction.extend(root.coord, 0)
        assert same_arrays(_row_weights(pieces, child), want)
        monkeypatch.setattr("greedytree.exact._GATHER_BYTES", 7 * n * 8)  # 7-row blocks
        assert same_arrays(_row_weights(pieces, child), want)
        for got, want in zip(split_children(root, dist), children, strict=True):
            assert_same_leaf(got, want)


class TestOnePassSplit:
    """Both children of a split come from one product over the parent's
    rows, yet equal fresh leaves field for field."""

    @settings(max_examples=80, deadline=None)
    @given(**PIECE_CASES)
    def test_split_chains_down_to_points_equal_fresh_leaf_info(self, seed, n, kind, bias):
        rng = np.random.default_rng(seed)
        oracle = TreeOracle(piece_target(kind, n, rng), n)
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        info = leaf_info(oracle, dist, Restriction())
        while len(info.restriction) < n:
            free = [i for i in range(n) if i not in info.restriction]
            coord = int(rng.choice(free))
            children = split_children(dataclasses.replace(info, coord=coord), dist)
            for b, child in enumerate(children):
                fixed = dict(info.restriction.fixed) | {coord: b}
                assert_same_leaf(child, leaf_info(oracle, dist, Restriction(fixed)))
            info = children[int(rng.integers(2))]
        assert info.coord == -1 and info.score == 0.0

    @pytest.mark.parametrize("kind", ["tree", "table"])
    def test_tied_child_influences_pick_the_lowest_free_coordinate(self, kind):
        # the parity of x1, x2, x3: split on any one of them, and the other
        # two tie in both children, with x0 free below them at influence 0
        n = 8
        parity = DecisionTree(Internal(1, *(
            Internal(2, Internal(3, Leaf(s), Leaf(-s)), Internal(3, Leaf(-s), Leaf(s)))
            for s in (-1, 1)
        )))
        oracle = TreeOracle(parity, n)
        assert _pairs_fit(oracle.compiled_leaves(), n)
        if kind == "table":
            oracle = TruthTableOracle(oracle.label_codes(np.arange(1 << n, dtype=np.uint64)))
        dist = ProductDistribution([0.5] * n)
        root = leaf_info(oracle, dist, Restriction())
        assert root.coord == 1
        for coord in (1, 2, 3):
            tied = [i for i in (1, 2, 3) if i != coord]
            for child in split_children(dataclasses.replace(root, coord=coord), dist):
                infl = subfunction_summary(SubfunctionView(oracle, child.restriction), dist).influences
                assert infl[tied[0]] == infl[tied[1]] > 0.0 == infl[0]
                assert child.coord == tied[0] and child.score == child.reach * infl[tied[0]]
                assert (child.summary.pieces is None) == (kind == "table")


class TestSplitOnAnyCoordinate:
    """Splitting a leaf on any free coordinate c lowers the cost by the
    kept ``reach * summary.influences[c]``, not only on the argmax: the
    other coordinates' re-randomization influences, weighed by the two
    children's reaches, sum to the parent's."""

    @pytest.mark.parametrize("bias", sorted(SPLIT_BIASES))
    @pytest.mark.parametrize("kind", ["tree", "table"])  # leaf pairs, enumeration
    def test_children_cost_the_parent_less_the_kept_influence(self, kind, bias):
        rng = np.random.default_rng([len(kind), len(bias)])
        n = 12 if kind == "tree" else 8
        oracle = (
            TreeOracle(generate_balanced_target(4, n, rng), n)
            if kind == "tree"
            else generate_truth_table(n, rng)
        )
        assert _pairs_fit(oracle.compiled_leaves(), n) == (kind == "tree")
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        result = build_topdown_exact(oracle, dist, epsilon=0.01, max_splits=24)
        # every leaf the build held, replayed down its splits
        live, visited = [(result.bare.root, leaf_info(oracle, dist, Restriction()))], 0
        while live:
            node, info = live.pop()
            visited += 1
            for c in (i for i in range(n) if i not in info.restriction):
                lo, hi = split_children(dataclasses.replace(info, coord=c), dist)
                want = info.leaf_cost - info.reach * info.summary.influences[c]
                assert lo.leaf_cost + hi.leaf_cost == pytest.approx(want, abs=IDENTITY_TOL)
                if isinstance(node, Internal) and node.var == c:
                    live += [(node.lo, lo), (node.hi, hi)]
        assert result.splits > 0 and visited == 2 * result.splits + 1


class TestPairlessCoordinates:
    """A free coordinate with no disagreeing pair in a leaf's region reads
    exactly +0.0 in both children, so reducing every free coordinate of a
    child gives what skipping it would."""

    @pytest.mark.parametrize("kind", ["table", "tree"])
    def test_reads_positive_zero_in_both_children(self, kind):
        rng = np.random.default_rng(3)
        n = 9
        oracle = enumerated_oracle(kind, n, rng)
        assert not _pairs_fit(oracle.compiled_leaves(), n)
        codes = np.arange(1 << n, dtype=np.uint64)
        table = oracle.label_codes(codes)
        dist = ProductDistribution(rng.uniform(0.05, 0.95, n))
        checked = 0
        live = [Restriction()]
        while live:
            r = live.pop()
            free = [i for i in range(n) if i not in r]
            if not free:
                continue
            inside = np.ones(len(codes), dtype=bool)
            for i, b in r.items():
                inside &= ((codes >> np.uint64(i)) & np.uint64(1)) == b
            x = codes[inside]
            pairless = [i for i in free if np.all(table[x] == table[x ^ np.uint64(1 << i)])]
            coord = int(rng.choice(free))
            for b in (0, 1):
                child = r.extend(coord, b)
                summary = subfunction_summary(SubfunctionView(oracle, child), dist)
                for i in pairless:
                    for value in (summary.influences[i], summary.flip_influences[i]):
                        assert value == 0.0 and not np.signbit(value)
                if len(set(table[x])) > 1:  # labels vary: only relevance skipped i
                    checked += len(pairless)
                live.append(child)
        assert checked > 0

    def test_child_of_an_underflowed_parent_equals_a_fresh_leaf(self):
        # f = +1 only at x = 111: across coordinate 2 the pairs disagree where
        # x0 = x1 = 1, whose weight 1e-200 * 1e-200 underflows to 0.0
        dist = ProductDistribution([1e-200, 1e-200, 0.5])
        oracle = TruthTableOracle(np.array([-1] * 7 + [1], dtype=np.int8))
        root = leaf_info(oracle, dist, Restriction())
        assert subfunction_summary(SubfunctionView(oracle), dist).flip_influences[2] == 0.0
        _, hi = split_children(dataclasses.replace(root, coord=0), dist)
        fresh = leaf_info(oracle, dist, Restriction({0: 1}))
        assert_same_leaf(hi, fresh)
        assert subfunction_summary(SubfunctionView(oracle, Restriction({0: 1})), dist
                                   ).flip_influences[2] == 1e-200


def enumerated_oracle(kind: str, n: int, rng):
    """A ``split_oracle`` kind whose tree is past the leaf-pair rule: a
    depth-8 balanced tree has 128 leaves of each label."""
    if kind == "table":
        return generate_truth_table(n, rng)
    oracle = TreeOracle(generate_balanced_target(8, n, rng), n)
    return oracle if kind == "tree" else CountingOracle(oracle)


def _run_exact(oracle, dist, threads, monkeypatch):
    """A capped build plus the leaves of the first three levels (the root and
    its children hold at least two draw blocks), with ``threads`` reduction
    threads and a fresh pool."""
    monkeypatch.setattr(core, "_DRAW_THREADS", threads)
    monkeypatch.setattr(core, "_DRAW_POOL", [])
    build = repr(build_topdown_exact(oracle, dist, epsilon=0.01, max_splits=24))
    level = [leaf_info(oracle, dist, Restriction())]
    leaves = list(level)
    for _ in range(2):
        level = [c for info in level for c in split_children(info, dist)]
        leaves += level
    pool = list(core._DRAW_POOL)
    for p in pool:
        p.shutdown()
    return build, leaves, bool(pool)


class TestThreadedReduction:
    """Splitting the influence reduction over threads changes no bit."""

    @pytest.mark.parametrize("bias", ["uniform", "skewed", "mixed"])
    @pytest.mark.parametrize("kind", ["tree", "table", "counting"])
    def test_pool_path_is_bit_identical_to_inline(self, monkeypatch, kind, bias):
        n = 17
        assert 1 << n >= 2 * core._MIN_BLOCK  # the root takes the pool path
        rng = np.random.default_rng([n, len(kind), len(bias)])
        oracle = enumerated_oracle(kind, n, rng)
        assert not _pairs_fit(oracle.compiled_leaves(), n)
        dist = ProductDistribution(SPLIT_BIASES[bias](n, rng))
        build1, leaves1, started1 = _run_exact(oracle, dist, 1, monkeypatch)
        build2, leaves2, started2 = _run_exact(oracle, dist, 2, monkeypatch)
        assert not started1 and started2
        assert build1 == build2
        assert len(leaves1) == len(leaves2) >= 3
        for a, b in zip(leaves1, leaves2):
            assert_same_leaf(a, b)


class TestCost:
    def test_constant(self):
        bare = BareTree(Internal(0, BareLeaf(0), BareLeaf(1)))
        assert cost(bare, oracle_of(CONST2, 2), UNIFORM2) == 0.0

    def test_dictator_root_only(self):
        assert cost(BareTree(BareLeaf(0)), oracle_of(DICTATOR, 2), UNIFORM2) == pytest.approx(0.5)

    def test_dictator_after_split_is_zero(self):
        bare = BareTree(Internal(0, BareLeaf(1), BareLeaf(2)))
        assert cost(bare, oracle_of(DICTATOR, 2), UNIFORM2) == 0.0

    def test_invariant_under_leaf_relabeling(self):
        rng = np.random.default_rng(9)
        oracle = generate_truth_table(3, rng)
        dist = ProductDistribution([0.2, 0.5, 0.7])
        a = BareTree(Internal(1, BareLeaf(0), Internal(2, BareLeaf(1), BareLeaf(2))))
        b = BareTree(Internal(1, BareLeaf(40), Internal(2, BareLeaf(17), BareLeaf(99))))
        assert cost(a, oracle, dist) == cost(b, oracle, dist)
        for (ra, _), (rb, _) in zip(leaf_paths(a), leaf_paths(b), strict=True):
            assert_same_leaf(leaf_info(oracle, dist, ra), leaf_info(oracle, dist, rb))


class TestCompletion:
    def test_constant_plus_one(self):
        tree = f_completion(BareTree(BareLeaf(0)), oracle_of(CONST2, 2), UNIFORM2)
        assert tree == DecisionTree(Leaf(1))

    def test_biased_dictator_majority(self):
        dist = ProductDistribution([0.3, 0.5])
        tree = f_completion(BareTree(BareLeaf(0)), oracle_of(DICTATOR, 2), dist)
        # the 0-branch (mass 0.7) is labeled -1 by the target
        assert tree == DecisionTree(Leaf(-1))
        assert tree_error(tree, oracle_of(DICTATOR, 2), dist) == pytest.approx(0.3, abs=1e-15)

    def test_split_dictator_completes_exactly(self):
        bare = BareTree(Internal(0, BareLeaf(1), BareLeaf(2)))
        tree = f_completion(bare, oracle_of(DICTATOR, 2), UNIFORM2)
        assert tree == DICTATOR
        assert tree_error(tree, oracle_of(DICTATOR, 2), UNIFORM2) == 0.0

    def test_completion_is_error_optimal(self):
        # every other labeling of the same bare tree does at least as badly
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 4
            oracle = generate_truth_table(n, rng)
            dist = ProductDistribution(rng.uniform(0.1, 0.9, n))
            bare = BareTree(Internal(1, BareLeaf(0), Internal(3, BareLeaf(1), BareLeaf(2))))
            best = tree_error(f_completion(bare, oracle, dist), oracle, dist)
            for labels in itertools.product((-1, 1), repeat=3):
                tree = DecisionTree(
                    Internal(1, Leaf(labels[0]), Internal(3, Leaf(labels[1]), Leaf(labels[2])))
                )
                assert tree_error(tree, oracle, dist) >= best - 1e-12

    def test_exact_tie_goes_to_plus_one(self):
        tree = f_completion(BareTree(BareLeaf(0)), oracle_of(DICTATOR, 2), UNIFORM2)
        assert tree == DecisionTree(Leaf(1))


class TestTreeError:
    def test_exact_copy(self):
        assert tree_error(AND2, oracle_of(AND2, 2), UNIFORM2) == 0.0

    def test_single_leaf_vs_dictator_uniform(self):
        assert tree_error(CONST2, oracle_of(DICTATOR, 2), UNIFORM2) == pytest.approx(0.5)

    def test_single_leaf_vs_biased_dictator(self):
        # -1 sits on the x_0 = 1 branch, which carries mass 0.3
        dist = ProductDistribution([0.3, 0.5])
        flipped = DecisionTree(Internal(0, Leaf(1), Leaf(-1)))
        assert tree_error(CONST2, oracle_of(flipped, 2), dist) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("var", [8, 9, 20])
    def test_refuses_a_tree_over_coordinates_the_space_lacks(self, var):
        target = generate_balanced_target(2, 8, np.random.default_rng(0))
        hypothesis = DecisionTree(Internal(var, Leaf(-1), Leaf(1)))
        with pytest.raises(ValueError, match=f"tree queries x_{var} but n=8"):
            tree_error(hypothesis, TreeOracle(target, 8), ProductDistribution([0.3] * 8))


class TestEnumerationBudget:
    @pytest.fixture(autouse=True)
    def cap_of_four(self, monkeypatch):
        monkeypatch.setattr("greedytree.exact.MAX_FREE_COORDS", 4)

    def test_cap_enforced(self):
        oracle = generate_truth_table(5, np.random.default_rng(0))
        dist = ProductDistribution([0.5] * 5)
        with pytest.raises(EnumerationLimitError, match="cap of 4"):
            subfunction_summary(SubfunctionView(oracle), dist)

    def test_cap_enforced_before_any_label_query(self):
        oracle = CountingOracle(generate_truth_table(5, np.random.default_rng(0)))
        dist = ProductDistribution([0.5] * 5)
        with pytest.raises(EnumerationLimitError):
            leaf_info(oracle, dist, Restriction())
        assert oracle.queries == 0

    def test_cap_counts_free_coordinates_only(self):
        oracle = generate_truth_table(5, np.random.default_rng(0))
        dist = ProductDistribution([0.5] * 5)
        view = SubfunctionView(oracle, Restriction({0: 1}))
        subfunction_summary(view, dist)  # 4 free coordinates: fits
