"""Property checkers: designated probes, random suites, witness replay."""

import dataclasses
import math

import numpy as np
import pytest

from greedytree import verify
from greedytree.core import (
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    TreeOracle,
    average_depth,
    max_depth,
    parse_distribution,
    parse_tree,
)
from greedytree.greedy import build_topdown_exact
from greedytree.sampling import draw_pair_batch
from greedytree.verify import (
    IDENTITY_TOL,
    CheckReport,
    Instance,
    check_cost_telescoping,
    check_error_cost_bound,
    check_estimator_unbiasedness,
    check_influence_error_variance_chain,
    check_max_influence_bound,
    check_score_lower_bounds,
    check_size_bound,
    check_total_influence_bounds,
    dictator_normalization_probe,
    generate_instance,
    run_property_suite,
    _derived_split_bound_log,
    _report,
)

DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))


def _dictator_instance(bias: float, n: int = 1) -> Instance:
    dist = ProductDistribution([bias] * n)
    tree = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))
    return Instance(seed=0, kind="tree", dist=dist, oracle=TreeOracle(tree, n), target_tree=tree)


class TestNormalizationProbe:
    def test_dictator_separates_the_normalizations(self):
        probe = dictator_normalization_probe()
        assert probe["variance"] == pytest.approx(1.0)
        assert probe["average_depth"] == pytest.approx(1.0)
        assert probe["max_flip_influence"] == pytest.approx(1.0)
        assert probe["max_rerandomization_influence"] == pytest.approx(0.5)
        assert probe["flip_satisfies_bound"] is True
        assert probe["rerandomization_satisfies_bound"] is False
        assert probe["rerandomization_satisfies_halved_bound"] is True

    def test_flip_influence_breaks_the_error_chain_on_biased_dictator(self):
        # the converse separation: on a biased dictator the flip influence
        # exceeds twice the constant-label error, so the error chain holds
        # only for the re-randomization normalization
        from greedytree.exact import SubfunctionView, subfunction_summary

        inst = _dictator_instance(0.3)
        s = subfunction_summary(SubfunctionView(inst.oracle), inst.dist)
        assert float(np.max(s.flip_influences)) > 2 * s.error + 1e-9
        assert float(np.max(s.influences)) <= 2 * s.error + 1e-12

    def test_max_influence_check_passes_on_biased_dictators(self):
        for bias in (0.1, 0.3, 0.5, 0.8):
            report = check_max_influence_bound(_dictator_instance(bias))
            assert report.passed, report.detail


class TestErrorCostBound:
    def test_root_only_biased_dictator(self):
        # completion error 0.3 against cost 2 * 0.3 * 0.7 = 0.42
        inst = _dictator_instance(0.3)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.25)
        report = check_error_cost_bound(inst, result)
        assert report.passed

    def test_constant_target(self):
        tree = DecisionTree(Leaf(1))
        inst = Instance(0, "tree", ProductDistribution([0.5]), TreeOracle(tree, 1), tree)
        result = build_topdown_exact(tree, inst.dist, epsilon=0.5)
        assert check_error_cost_bound(inst, result).passed


class TestTelescoping:
    def test_zero_step_trace(self):
        tree = DecisionTree(Leaf(-1))
        inst = Instance(0, "tree", ProductDistribution([0.5]), TreeOracle(tree, 1), tree)
        result = build_topdown_exact(tree, inst.dist, epsilon=0.5)
        assert result.splits == 0
        assert check_cost_telescoping(inst, result).passed

    def test_dictator_single_step(self):
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        assert result.steps[0].score == pytest.approx(0.5)
        assert check_cost_telescoping(inst, result).passed

    def test_parity_three_steps(self):
        parity = DecisionTree(
            Internal(0, Internal(1, Leaf(-1), Leaf(1)), Internal(1, Leaf(1), Leaf(-1)))
        )
        inst = Instance(0, "tree", ProductDistribution([0.5, 0.5]), TreeOracle(parity, 2), parity)
        result = build_topdown_exact(parity, inst.dist, epsilon=0.01)
        assert check_cost_telescoping(inst, result).passed


class TestScoreBounds:
    def test_dictator_single_step(self):
        # score 1/2 clears the nominal floor 2 * 0.1 / (1 * 1) and equals the
        # error floor err/(avg + 0 * depth) = 1/2 / 1, so a halved score
        # must fail the hard floor
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        report = check_score_lower_bounds(inst, result, inst.target_tree)
        assert report.passed and "violations=0" in report.detail
        step = result.steps[0]
        assert step.score == pytest.approx(step.completion_error)
        halved = dataclasses.replace(
            result, steps=(dataclasses.replace(step, score=step.score / 2),)
        )
        report = check_score_lower_bounds(inst, halved, inst.target_tree)
        assert not report.passed and "below error floor" in report.detail

    def test_nominal_floor_fails_at_the_biased_boundary(self):
        # epsilon just below the starting error on a biased dictator: the
        # nominal floor 2 eps/(j avg) exceeds the actual score 2p(1-p),
        # while the halved floor still holds -- the factor-2 boundary that
        # motivates tracking both constants.  The nominal floor is no
        # theorem, so the violation is counted and the report still passes
        inst = _dictator_instance(0.11)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.105)
        report = check_score_lower_bounds(inst, result, inst.target_tree)
        assert report.passed and report.witness is None
        assert "nominal_error_floor_violations=1" in report.detail

    def test_halved_floor_fails_past_the_root_on_a_gated_majority(self):
        # x0 ? maj(x1..x5) : -1 with Pr[x0 = 1] = 0.01: the target's tree has
        # depth 6 but average depth 1.04125.  After the root split on x0 the
        # best score is 0.01 * 1/2 * 6/16, below eps/(j avg), while the OSSS
        # floor err/(avg + (j-1) depth) still holds
        def majority(coords, plus=0, minus=0):
            if plus == 3 or minus == 3:
                return Leaf(1 if plus == 3 else -1)
            return Internal(
                coords[0], majority(coords[1:], plus, minus + 1),
                majority(coords[1:], plus + 1, minus),
            )

        tree = DecisionTree(Internal(0, Leaf(-1), majority([1, 2, 3, 4, 5])))
        dist = ProductDistribution([0.01] + [0.5] * 5)
        inst = Instance(0, "tree", dist, TreeOracle(tree, 6), tree)
        depth, avg = max_depth(tree), average_depth(tree, dist)
        assert (depth, avg) == (6, pytest.approx(1.04125))
        eps = 0.0045
        result = build_topdown_exact(tree, dist, epsilon=eps)
        step = result.steps[1]
        assert (step.leaf_count, step.coord) == (2, 1)
        assert step.score == pytest.approx(0.001875)
        assert step.score < eps / (2 * avg)
        assert step.score >= step.completion_error / (avg + depth) - IDENTITY_TOL
        report = check_score_lower_bounds(inst, result, tree)
        assert report.detail == f"{result.splits} steps, nominal_error_floor_violations=1"

    def test_cost_floor_tight_at_dictator(self):
        # for the dictator, score == cost and the floor is cost/(1*1*1):
        # equality must pass under the tolerance
        inst = _dictator_instance(0.3)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.05)
        report = check_score_lower_bounds(inst, result, inst.target_tree)
        assert report.passed, report.detail

    def test_cost_floor_on_gated_extreme_bias_targets(self):
        # x_a ? (x_b ? +1 : -1) : +1 is -1 only where x_a = 1 and x_b = 0;
        # its root score over the cost floor is 2 max(1-a, b)(1+a)/(1-a+b),
        # which tends to 1 as a -> 0 and b -> 1
        rng = np.random.default_rng(2024)
        extremes = [0.01, 0.03, 0.1, 0.5, 0.9, 0.97, 0.99]
        for _ in range(1000):
            n = int(rng.integers(2, 16))
            ga, gb = (int(v) for v in rng.choice(n, 2, replace=False))
            a, b = (float(v) for v in rng.choice(extremes, 2))
            biases = rng.uniform(0.01, 0.99, n)
            biases[ga], biases[gb] = a, b
            tree = DecisionTree(Internal(ga, Leaf(1), Internal(gb, Leaf(-1), Leaf(1))))
            inst = Instance(0, "tree", ProductDistribution(biases), TreeOracle(tree, n), tree)
            result = build_topdown_exact(tree, inst.dist, epsilon=1e-5)
            report = check_score_lower_bounds(inst, result, tree)
            assert report.passed, report.detail
            root = result.steps[0]
            floor = root.cost_before / (max_depth(tree) * average_depth(tree, inst.dist))
            ratio = 2 * max(1 - a, b) * (1 + a) / (1 - a + b)
            assert root.score / floor == pytest.approx(ratio, rel=0, abs=1e-12)


class TestSizeBound:
    def test_dictator(self):
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        assert check_size_bound(inst, result, inst.target_tree).passed

    def test_balanced_depth3_loose_bound(self):
        from greedytree.targets import generate_balanced_target

        tree = generate_balanced_target(3, 5, np.random.default_rng(0))
        dist = ProductDistribution([0.5] * 5)
        inst = Instance(0, "balanced", dist, TreeOracle(tree, 5), tree)
        result = build_topdown_exact(tree, dist, epsilon=0.1)
        assert check_size_bound(inst, result, tree).passed

    def test_derived_bound_formula(self):
        # (avg / depth) * (exp(depth * avg / (2 eps)) - 1), also where exp overflows
        assert _derived_split_bound_log(0.1, 2, 1.5) == pytest.approx(
            math.log(1.5 / 2 * (math.exp(2 * 1.5 / 0.2) - 1)), rel=1e-12
        )
        assert _derived_split_bound_log(1e-4, 20, 20.0) == pytest.approx(2e6, rel=1e-12)
        assert _derived_split_bound_log(0.1, 0, 0.0) == -math.inf

    def test_report_names_both_bounds(self):
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        report = check_size_bound(inst, result, inst.target_tree)
        assert report.passed
        assert report.detail.startswith("paper: ln(size)=0.693147 ")
        assert "; derived (error floor + telescoping + cost0<=avg/2): ln(splits)=0 " in report.detail

    def test_too_many_splits_break_the_derived_bound_without_termination(self):
        # dictator, eps = 0.1: at most exp(5) - 1 < 148 splits; the paper's
        # bound exempts a run cut short, the derived one does not
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        assert math.exp(_derived_split_bound_log(0.1, 1, 1.0)) == pytest.approx(math.exp(5) - 1)
        for splits, passed in ((147, True), (148, False)):
            long = dataclasses.replace(result, steps=result.steps * splits, terminated=False)
            report = check_size_bound(inst, long, inst.target_tree)
            assert report.passed is passed
            assert report.detail.startswith("paper: not terminated, exempt; derived")
        assert report.witness is not None

    def test_starting_cost_above_half_the_average_depth_fails(self):
        # the uniform dictator's total influence is exactly avg/2 = 1/2
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        assert result.steps[0].cost_before == pytest.approx(0.5)
        assert check_size_bound(inst, result, inst.target_tree).passed
        step = dataclasses.replace(result.steps[0], cost_before=0.5 + 1e-6)
        report = check_size_bound(inst, dataclasses.replace(result, steps=(step,)), inst.target_tree)
        assert not report.passed and "cost0=0.500001 avg/2=0.5" in report.detail

    def test_constant_target_allows_no_split(self):
        tree = DecisionTree(Leaf(1))
        dist = ProductDistribution([0.5])
        inst = Instance(0, "tree", dist, TreeOracle(tree, 1), tree)
        result = build_topdown_exact(tree, dist, epsilon=0.1)
        assert check_size_bound(inst, result, tree).passed
        forged = dataclasses.replace(result, steps=build_topdown_exact(DICTATOR, dist, 0.1).steps)
        assert not check_size_bound(inst, forged, tree).passed


class TestWholeFunctionChecks:
    def test_random_instances_clean(self):
        for k in range(60):
            inst = generate_instance(7_000 + k)
            assert check_influence_error_variance_chain(inst).passed
            if inst.target_tree is not None:
                assert check_total_influence_bounds(inst).passed
                assert check_max_influence_bound(inst).passed


class TestEstimatorUnbiasedness:
    def test_small_random_instances(self):
        for k in (1, 2):
            inst = generate_instance(550 + k, max_n=4)
            report = check_estimator_unbiasedness(inst, seed=k)
            assert report.passed, report.detail

    def test_one_pair_draw_per_resample(self, monkeypatch):
        # every resample is one builder-shaped call pairing every coordinate
        calls = []

        def counting(*args):
            calls.append(args)
            return draw_pair_batch(*args)

        monkeypatch.setattr(verify, "draw_pair_batch", counting)
        inst = _dictator_instance(0.3, n=3)
        report = check_estimator_unbiasedness(inst, seed=0)
        assert report.passed and not report.detail.startswith("retry")
        assert len(calls) == 50

    def test_constant_target_exact_zero(self):
        tree = DecisionTree(Leaf(1))
        inst = Instance(1, "tree", ProductDistribution([0.5, 0.5]), TreeOracle(tree, 2), tree)
        report = check_estimator_unbiasedness(inst, seed=0)
        assert report.passed


class TestSuite:
    def test_deterministic_given_seed(self):
        a = run_property_suite(seed=5, count=8)
        b = run_property_suite(seed=5, count=8)
        assert a == b

    def test_instances_reproducible(self):
        assert generate_instance(123).dist == generate_instance(123).dist

    def test_witness_documents_replay(self):
        inst = generate_instance(42)
        assert _report("check", inst, True, "").witness is None
        docs = _report("check", inst, False, "").witness
        tree = parse_tree(docs["target.json"])
        dist = parse_distribution(docs["dist.json"])
        assert dist == inst.dist
        # the replayed tree computes the same function as the original oracle
        codes = np.arange(1 << inst.dist.n, dtype=np.uint64)
        from greedytree.core import route_codes

        assert np.array_equal(route_codes(tree, codes), inst.oracle.label_codes(codes))

    def test_failing_reports_carry_witnesses(self):
        # halving the dictator's score breaks the derived error floor
        inst = _dictator_instance(0.5, n=2)
        result = build_topdown_exact(inst.target_tree, inst.dist, epsilon=0.1)
        step = result.steps[0]
        halved = dataclasses.replace(
            result, steps=(dataclasses.replace(step, score=step.score / 2),)
        )
        report = check_score_lower_bounds(inst, halved, inst.target_tree)
        assert not report.passed
        assert report.witness is not None and "target.json" in report.witness
