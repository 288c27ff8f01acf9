"""Brute-force checkers for the inequalities the greedy analysis rests on.

Each checker validates one statement on a concrete instance by independent
enumeration (never by trusting the builders' cached values) and returns a
:class:`CheckReport`.  Violations carry the instance serialized in the tree
and distribution file formats so they replay as regression tests.

Influence normalization.  Two notions of coordinate influence circulate:
the re-randomization form used by the builders (redraw the coordinate;
carries a 2p(1-p) factor) and the flip form (force the coordinate both
ways).  They coincide up to a factor 2 on the uniform distribution but
diverge on biased ones, and no single normalization satisfies every
inequality below:

* the chain influence <= 2 * error <= variance and the bound
  total influence <= depth * variance hold for the re-randomization form
  and fail for the flip form on biased near-dictators;
* the imported bound max-influence >= variance / average-depth holds for
  the flip form, fails for the re-randomization form already on the
  uniform dictator (1/2 < 1), and holds for the re-randomization form
  with an extra factor 2 in the denominator (tight: biased dictators and
  AND-chains achieve equality).

:func:`check_max_influence_bound` therefore verifies the flip form as
stated plus the factor-2 re-randomization variant, and records which forms
held; :func:`dictator_normalization_probe` exercises the designated
boundary instance.

Per-step score floor.  :func:`check_score_lower_bounds` states it for the
recorded scores, which are in the re-randomization form.  Let the current
bare tree have j leaves; for a leaf l write P(l) for its reach
probability, f_l for the target restricted to it, and Delta_l for the
conditional average depth of the target's tree restricted to it (queries
on coordinates the leaf fixes are resolved, not counted).  Let D and
Delta be the target tree's depth and average depth.

1. OSSS holds as stated for the product-space influence E[Var_{x_i} f],
   which is twice the re-randomization influence of a +-1 function.
   Applied on the conditional product measure of l, and written for the
   builders' re-randomization score(l) = P(l) * max_i influence_i(f_l),
   it gives P(l) * Var(f_l) <= 2 * Delta_l * score(l).
2. Var >= 2 * error holds in every normalization (it involves no
   influence), so P(l) * error(f_l) <= Delta_l * score(l).  Summing over
   the leaves whose restriction is not constant gives
   completion_error <= max_l score(l) * sum of those Delta_l.
3. Each Delta_l <= D, and sum_l P(l) * Delta_l <= Delta.  So either some
   leaf is constant (at most j - 1 terms remain) or the smallest Delta_l is
   at most Delta; either way the sum is at most Delta + (j - 1) * D, and
   the chosen score is at least

       completion_error / (Delta + (j - 1) * D).

At j = 1 this is the factor-2 root bound above.  The nominal floor
2 * eps / (j * Delta) is not a theorem in this normalization: biased
dictators break it at the root.  Neither is its half, eps / (j * Delta):
Delta bounds the depth below the leaves only on average.  The gated
majority x0 ? maj(x1..x5) : -1 with Pr[x0 = 1] = 0.01 and eps = 0.0045
breaks it at j = 2, where the best score is 0.001875 < 0.00216.  The
checker therefore counts nominal-floor violations without failing on them.

Cost floor.  :func:`check_score_lower_bounds` also asserts
score >= cost / (j * D * Delta).  This is an observed, checked conjecture,
not a theorem.  A seeded search of 86,691 exact builds (526,251 steps;
n = 4 to 15; random and gated targets; biases down to 0.01; eps down to
0.001) found no violation, with ratio exactly 1 at biased dictators, and
every property-suite run checks it again.  The chain above proves only
the weaker score >= cost / (2 * D * (Delta + (j - 1) * D)): in the
re-randomization form the total influence of f_l is at most D * Var(f_l), so
cost = sum_l P(l) * TotInf(f_l) <= D * sum_l P(l) * Var(f_l), and step 1
bounds each non-constant leaf's P(l) * Var(f_l) by 2 * Delta_l * score.

Size bound.  :func:`check_size_bound` asserts the paper's bound
(:func:`greedytree.greedy.size_bound_log`, taken from the paper and not
derived here) and one derived from the asserted error floor.  Let J be
the number of splits.

1. The builder splits only while completion_error > eps, and the j-th
   split happens at j leaves, so its score exceeds
   eps / (Delta + (j - 1) * D) by the error floor.
2. Each split lowers the cost by exactly its score
   (:func:`check_cost_telescoping`) and the cost stays >= 0, so the J
   scores sum to at most cost_0.
3. cost_0 is the target's total influence, and TotInf <= Delta / 2 in the
   re-randomization form.  Coordinate i's influence is
   2 p_i (1 - p_i) * d_i <= d_i / 2, where
   d_i = Pr[f(x with x_i = 0) != f(x with x_i = 1)] is at most
   Pr[the target's tree queries x_i on x's path]: a path that never reads
   x_i ends in the same leaf for both values of x_i.  Summed over i, these
   probabilities are at most the expected number of queries, Delta.
4. 1 / (Delta + (j - 1) * D) is at least the integral of
   1 / (Delta + x * D) over [j - 1, j], so the scores sum to more than
   (eps / D) * ln(1 + J * D / Delta).  With 2 and 3 this gives
   ln(1 + J * D / Delta) <= D * Delta / (2 * eps), that is

       J <= (Delta / D) * (exp(D * Delta / (2 * eps)) - 1).

It is weaker than the paper's bound at small eps, but each step is checked
here: step 1 by :func:`check_score_lower_bounds`, step 2 by
:func:`check_cost_telescoping`, and step 3's cost_0 <= Delta / 2 by
:func:`check_size_bound` itself.  It holds for runs cut short by
``max_splits`` too, which the paper's bound exempts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BareLeaf,
    BareTree,
    DecisionTree,
    Internal,
    Leaf,
    Node,
    ProductDistribution,
    TargetOracle,
    TreeOracle,
    average_depth,
    leaf_paths,
    max_depth,
    serialize_distribution,
    serialize_tree,
    size,
    split_leaf,
)
from .exact import (
    SubfunctionView,
    cost,
    f_completion,
    subfunction_summary,
    tree_error,
)
from .greedy import GreedyResult, build_topdown_exact, size_bound_log
from .sampling import draw_pair_batch
from .targets import (
    generate_balanced_target,
    generate_path_target,
    generate_random_tree,
    generate_truth_table,
)

__all__ = [
    "CheckReport",
    "Instance",
    "IDENTITY_TOL",
    "check_cost_telescoping",
    "check_error_cost_bound",
    "check_estimator_unbiasedness",
    "check_influence_error_variance_chain",
    "check_max_influence_bound",
    "check_score_lower_bounds",
    "check_size_bound",
    "check_total_influence_bounds",
    "dictator_normalization_probe",
    "generate_instance",
    "run_property_suite",
]

IDENTITY_TOL = 1e-10
ARITHMETIC_TOL = 1e-12

_INSTANCE_SALT = 901

TARGET_KINDS = ("tree", "balanced", "path", "table")
BIAS_KINDS = ("uniform", "fixed", "random")


@dataclass(frozen=True)
class Instance:
    seed: int
    kind: str
    dist: ProductDistribution
    oracle: TargetOracle
    target_tree: DecisionTree | None


@dataclass(frozen=True)
class CheckReport:
    check: str
    seed: int
    passed: bool
    detail: str
    witness: dict[str, str] | None = None


def _table_as_tree(oracle: TargetOracle) -> DecisionTree:
    """Materialize any oracle as a complete tree (for witness replay)."""
    n = oracle.n
    labels = oracle.label_codes(np.arange(1 << n, dtype=np.uint64))
    # Level by level from the leaves: after level var, nodes[c] is the
    # subtree reached when x_0..x_{var-1} spell the packed value c.
    nodes: list[Node] = [Leaf(int(label)) for label in labels]
    for var in reversed(range(n)):
        half = 1 << var
        nodes = [Internal(var, nodes[c], nodes[c + half]) for c in range(half)]
    return DecisionTree(nodes[0])


def _report(check: str, instance: Instance, passed: bool, detail: str) -> CheckReport:
    """The one way to build a report: a failing one carries the instance as
    tree and distribution files (its witness), so it replays as a test."""
    witness = None
    if not passed:
        tree = instance.target_tree or _table_as_tree(instance.oracle)
        witness = {
            "target.json": serialize_tree(tree),
            "dist.json": serialize_distribution(instance.dist),
        }
    return CheckReport(check, instance.seed, passed, detail, witness)


def generate_instance(
    seed: int,
    max_n: int = 6,
    kinds: tuple[str, ...] = TARGET_KINDS,
    bias_kinds: tuple[str, ...] = BIAS_KINDS,
) -> Instance:
    """Reproducible random instance: a target plus a product distribution."""
    rng = np.random.default_rng(np.random.SeedSequence([_INSTANCE_SALT, seed]))
    n = int(rng.integers(1, max_n + 1))
    bias_kind = bias_kinds[int(rng.integers(len(bias_kinds)))]
    if bias_kind == "uniform":
        dist = ProductDistribution([0.5] * n)
    elif bias_kind == "fixed":
        dist = ProductDistribution([float(rng.uniform(0.1, 0.9))] * n)
    else:
        dist = ProductDistribution(rng.uniform(0.1, 0.9, size=n))
    kind = kinds[int(rng.integers(len(kinds)))]
    tree: DecisionTree | None
    if kind == "tree":
        tree = generate_random_tree(n, int(rng.integers(1, min(n, 4) + 1)), rng)
    elif kind == "balanced":
        tree = generate_balanced_target(int(rng.integers(0, min(n, 3) + 1)), n, rng)
    elif kind == "path":
        tree = generate_path_target(n, rng)
    elif kind == "table":
        tree = None
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    if tree is None:
        oracle: TargetOracle = generate_truth_table(n, rng)
    else:
        oracle = TreeOracle(tree, n)
    return Instance(seed=seed, kind=kind, dist=dist, oracle=oracle, target_tree=tree)


# ---------------------------------------------------------------------------
# Whole-function inequalities
# ---------------------------------------------------------------------------


def check_total_influence_bounds(instance: Instance) -> CheckReport:
    """Total influence is at most depth * variance and at most the average
    depth of the target's tree."""
    assert instance.target_tree is not None, "needs the target as a tree"
    s = subfunction_summary(SubfunctionView(instance.oracle), instance.dist)
    d = max_depth(instance.target_tree)
    avg = average_depth(instance.target_tree, instance.dist)
    total = s.total_influence
    ok_var = total <= d * s.variance + IDENTITY_TOL
    ok_depth = total <= avg + IDENTITY_TOL
    passed = ok_var and ok_depth
    detail = f"influence={total:.12g} depth*var={d * s.variance:.12g} avg_depth={avg:.12g}"
    return _report("total_influence_bounds", instance, passed, detail)


def check_influence_error_variance_chain(instance: Instance) -> CheckReport:
    """Every coordinate influence is at most twice the best constant-label
    error, which is at most half the variance."""
    s = subfunction_summary(SubfunctionView(instance.oracle), instance.dist)
    worst = float(np.max(s.influences)) if len(s.influences) else 0.0
    ok_first = worst <= 2.0 * s.error + IDENTITY_TOL
    ok_second = 2.0 * s.error <= s.variance + IDENTITY_TOL
    passed = ok_first and ok_second
    detail = f"max_influence={worst:.12g} 2*error={2 * s.error:.12g} variance={s.variance:.12g}"
    return _report("influence_error_variance_chain", instance, passed, detail)


def check_max_influence_bound(instance: Instance) -> CheckReport:
    """Largest influence versus variance / average depth, both normalizations.

    Required: the flip form satisfies the bound as imported, and the
    re-randomization form satisfies it with denominator 2 * average depth.
    Whether the re-randomization form happens to satisfy the nominal bound
    is recorded, not required; the uniform dictator refutes it.
    """
    assert instance.target_tree is not None, "needs the target as a tree"
    s = subfunction_summary(SubfunctionView(instance.oracle), instance.dist)
    avg = average_depth(instance.target_tree, instance.dist)
    max_flip = float(np.max(s.flip_influences)) if len(s.flip_influences) else 0.0
    max_rr = float(np.max(s.influences)) if len(s.influences) else 0.0
    if avg == 0.0 or s.variance == 0.0:
        flip_ok = rr_half_ok = True
        rr_nominal_ok = True
    else:
        flip_ok = max_flip >= s.variance / avg - IDENTITY_TOL
        rr_half_ok = max_rr >= s.variance / (2.0 * avg) - IDENTITY_TOL
        rr_nominal_ok = max_rr >= s.variance / avg - IDENTITY_TOL
    passed = flip_ok and rr_half_ok
    detail = (
        f"flip={'ok' if flip_ok else 'VIOLATED'}"
        f" rerandomization_halved={'ok' if rr_half_ok else 'VIOLATED'}"
        f" rerandomization_nominal={'ok' if rr_nominal_ok else 'violated'}"
        f" max_flip={max_flip:.12g} max_rr={max_rr:.12g} var/avg={s.variance / avg if avg else 0.0:.12g}"
    )
    return _report("max_influence_bound", instance, passed, detail)


def dictator_normalization_probe() -> dict[str, float | bool]:
    """The single-variable boundary instance for the normalization question.

    Under the uniform distribution the dictator has variance 1 and a
    one-query tree of average depth 1, so the imported bound demands a
    maximal influence of at least 1: the flip form gives exactly 1, the
    re-randomization form only 1/2.
    """
    dist = ProductDistribution([0.5])
    tree = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))
    s = subfunction_summary(SubfunctionView(TreeOracle(tree, 1)), dist)
    avg = average_depth(tree, dist)
    return {
        "variance": s.variance,
        "average_depth": avg,
        "max_flip_influence": float(np.max(s.flip_influences)),
        "max_rerandomization_influence": float(np.max(s.influences)),
        "flip_satisfies_bound": float(np.max(s.flip_influences)) >= s.variance / avg - IDENTITY_TOL,
        "rerandomization_satisfies_bound": float(np.max(s.influences)) >= s.variance / avg - IDENTITY_TOL,
        "rerandomization_satisfies_halved_bound": float(np.max(s.influences))
        >= s.variance / (2 * avg) - IDENTITY_TOL,
    }


# ---------------------------------------------------------------------------
# Trace-based checks
# ---------------------------------------------------------------------------


def _replay_prefixes(result: GreedyResult):
    """Bare trees before each recorded split, ending with the final tree."""
    bare = BareTree(BareLeaf(0))
    yield bare
    for step in result.steps:
        bare = split_leaf(bare, step.leaf_id, step.coord)[0]
        yield bare


def check_error_cost_bound(instance: Instance, result: GreedyResult) -> CheckReport:
    """Completion error never exceeds the potential, at every trace prefix.

    Both sides are recomputed from scratch through the enumeration engine.
    """
    worst = -np.inf
    for bare in _replay_prefixes(result):
        completion = f_completion(bare, instance.oracle, instance.dist)
        err = tree_error(completion, instance.oracle, instance.dist)
        c = cost(bare, instance.oracle, instance.dist)
        worst = max(worst, err - c)
        if err > c + IDENTITY_TOL:
            return _report(
                "error_cost_bound", instance, False,
                f"error {err:.12g} exceeds cost {c:.12g} at size {size(bare)}",
            )
    return _report("error_cost_bound", instance, True, f"max(error-cost)={worst:.3g}")


def check_cost_telescoping(instance: Instance, result: GreedyResult) -> CheckReport:
    """Each split lowers the potential by exactly the chosen score, and the
    recorded potentials match independent recomputation."""
    prefixes = list(_replay_prefixes(result))
    for step, bare in zip(result.steps, prefixes[:-1]):
        recomputed = cost(bare, instance.oracle, instance.dist)
        if abs(recomputed - step.cost_before) > IDENTITY_TOL:
            return _report(
                "cost_telescoping", instance, False,
                f"recorded cost {step.cost_before:.12g} != recomputed {recomputed:.12g}"
                f" at step {step.step}",
            )
        if abs(step.cost_after - (step.cost_before - step.score)) > IDENTITY_TOL:
            return _report(
                "cost_telescoping", instance, False,
                f"step {step.step}: cost_after {step.cost_after:.12g} != "
                f"cost_before - score {step.cost_before - step.score:.12g}",
            )
    if result.steps:
        total_drop = result.steps[0].cost_before - result.steps[-1].cost_after
        score_sum = sum(s.score for s in result.steps)
        if abs(total_drop - score_sum) > IDENTITY_TOL:
            return _report(
                "cost_telescoping", instance, False,
                f"summed scores {score_sum:.12g} != total cost drop {total_drop:.12g}",
            )
    return _report("cost_telescoping", instance, True, f"{len(result.steps)} steps")


def check_score_lower_bounds(
    instance: Instance, result: GreedyResult, ground_truth: DecisionTree
) -> CheckReport:
    """Per-step floors on the chosen score, in the re-randomization form.

    Required at every step: the score is at least
    completion_error / (avg_depth + (j - 1) * depth), the OSSS floor
    derived in the module docstring, and at least
    cost / (j * depth * avg_depth).  A step below either fails the report
    with a "below ... floor" detail; nothing else fails it.

    The nominal floor 2 * eps / (j * avg_depth), applied while the
    completion error exceeds epsilon, is no theorem here (biased dictators
    break it), so its violations are only counted in the detail of a
    passing report.
    """
    d_opt = max_depth(ground_truth)
    avg_opt = average_depth(ground_truth, instance.dist)
    eps = result.epsilon
    nominal_violations = 0
    for step in result.steps:
        j = step.leaf_count
        denom = avg_opt + (j - 1) * d_opt
        error_floor = step.completion_error / denom if denom else 0.0
        if step.score < error_floor - IDENTITY_TOL:
            return _report(
                "score_lower_bounds", instance, False,
                f"step {step.step}: score {step.score:.12g} below error floor {error_floor:.12g}",
            )
        if (
            step.completion_error > eps
            and avg_opt > 0
            and step.score < 2.0 * eps / (j * avg_opt) - IDENTITY_TOL
        ):
            nominal_violations += 1
        floor = step.cost_before / (j * d_opt * avg_opt) if d_opt and avg_opt else 0.0
        if step.score < floor - IDENTITY_TOL:
            return _report(
                "score_lower_bounds", instance, False,
                f"step {step.step}: score {step.score:.12g} below cost floor {floor:.12g}",
            )
    detail = f"{len(result.steps)} steps, nominal_error_floor_violations={nominal_violations}"
    return _report("score_lower_bounds", instance, True, detail)


def _derived_split_bound_log(epsilon: float, depth: int, avg_depth: float) -> float:
    """ln of (Delta / D) * (exp(D * Delta / (2 eps)) - 1), the bound on the
    number of splits derived in the module docstring; -inf for a constant
    target, which allows none."""
    if depth == 0:
        return -math.inf
    z = depth * avg_depth / (2.0 * epsilon)
    return math.log(avg_depth / depth) + z + math.log(-math.expm1(-z))


def check_size_bound(
    instance: Instance, result: GreedyResult, ground_truth: DecisionTree
) -> CheckReport:
    """Final size obeys the paper's bound and the number of splits the
    derived bound, both compared in log space.

    The paper's bound is checked on terminated runs only.  The derived one
    rests on the error floor, cost telescoping and cost_0 <= avg_depth / 2
    (module docstring); the last is asserted here, on every run.
    """
    d_opt = max_depth(ground_truth)
    avg_opt = average_depth(ground_truth, instance.dist)
    splits = len(result.steps)
    cost0 = result.steps[0].cost_before if result.steps else 0.0
    cost0_ok = cost0 <= avg_opt / 2.0 + IDENTITY_TOL
    derived_log = _derived_split_bound_log(result.epsilon, d_opt, avg_opt)
    log_splits = math.log(splits) if splits else -math.inf
    derived_ok = log_splits <= derived_log + 1e-9
    detail = (
        f"derived (error floor + telescoping + cost0<=avg/2): ln(splits)={log_splits:.6g}"
        f" ln(bound)={derived_log:.6g} cost0={cost0:.6g} avg/2={avg_opt / 2.0:.6g}"
    )
    if result.terminated:
        log_bound = size_bound_log(result.epsilon, d_opt, avg_opt)
        log_size = float(np.log(size(result.tree)))
        paper_ok = log_size <= log_bound + 1e-9
        detail = f"paper: ln(size)={log_size:.6g} ln(bound)={log_bound:.6g}; " + detail
    else:
        paper_ok = True
        detail = "paper: not terminated, exempt; " + detail
    passed = paper_ok and derived_ok and cost0_ok
    return _report("size_bound", instance, passed, detail)


# ---------------------------------------------------------------------------
# Estimator unbiasedness
# ---------------------------------------------------------------------------


# The Monte Carlo check's size: resamples, and pairs per resample.
_RESAMPLES, _PAIR_COUNT = 50, 400


def _random_bare_tree(instance: Instance, rng: np.random.Generator) -> BareTree:
    """A bare tree of 0 to 3 random splits, each on a free coordinate."""
    bare = BareTree(BareLeaf(0))
    for _ in range(int(rng.integers(0, 4))):
        candidates = []
        for restriction, leaf in leaf_paths(bare):
            assert isinstance(leaf, BareLeaf)
            free = [i for i in range(instance.dist.n) if i not in restriction]
            if free:
                candidates.append((leaf.id, free))
        if not candidates:
            break
        leaf_id, free = candidates[int(rng.integers(len(candidates)))]
        bare = split_leaf(bare, leaf_id, int(rng.choice(free)))[0]
    return bare


def _unbiasedness_probes(
    instance: Instance, bare: BareTree, resamples: int, pair_count: int, seed: int
) -> tuple[int, int, float]:
    """(probes within 3 standard errors, total probes, worst z-score).

    Each resample is one call of :func:`greedytree.sampling.draw_pair_batch`,
    the practical builder's call: ``pair_count`` pairs for every coordinate
    from one shared draw.  For each (leaf, coordinate) the resamples are iid
    draws of that estimate.
    """
    dist, oracle = instance.dist, instance.oracle
    leaves = []
    for restriction, leaf in leaf_paths(bare):
        assert isinstance(leaf, BareLeaf)
        summary = subfunction_summary(SubfunctionView(oracle, restriction), dist)
        leaves.append((leaf.id, dist.reach_probability(restriction), summary.influences))
    id_index = {lid: k for k, (lid, _, _) in enumerate(leaves)}

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7001]))
    counts = np.zeros((resamples, len(leaves), dist.n))
    for r in range(resamples):
        batch = draw_pair_batch(oracle, dist, rng, pair_count, bare)
        for (lid, i), hits in batch.hits.items():
            counts[r, id_index[lid], i] = len(hits)
    estimates = counts / pair_count
    ok = 0
    total = 0
    worst = 0.0
    for k, (_, reach, infl) in enumerate(leaves):
        for i in range(dist.n):
            exact = reach * float(infl[i])
            col = estimates[:, k, i]
            mean = float(np.mean(col))
            stderr = float(np.std(col, ddof=1)) / np.sqrt(resamples)
            total += 1
            if stderr == 0.0:
                within = abs(mean - exact) <= ARITHMETIC_TOL
            else:
                within = abs(mean - exact) <= 3.0 * stderr
                worst = max(worst, abs(mean - exact) / stderr)
            ok += int(within)
    return ok, total, worst


def check_estimator_unbiasedness(instance: Instance, seed: int = 0) -> CheckReport:
    """Monte Carlo means of the split-score estimator match exact scores.

    The probes run on a random bare tree of at most 3 splits, with 50
    resamples of 400 pairs each.  A 3-standard-error band is a statistical
    test, so a clean failure is retried once with a fresh stream before
    being reported.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7000, instance.seed]))
    bare = _random_bare_tree(instance, rng)
    ok, total, worst = _unbiasedness_probes(instance, bare, _RESAMPLES, _PAIR_COUNT, seed)
    if ok == total:
        return _report(
            "estimator_unbiasedness", instance, True,
            f"{ok}/{total} probes within 3 standard errors (worst z={worst:.2f})",
        )
    ok2, total2, worst2 = _unbiasedness_probes(instance, bare, _RESAMPLES, _PAIR_COUNT, seed + 1)
    passed = ok2 == total2
    return _report(
        "estimator_unbiasedness", instance, passed,
        f"retry after {total - ok} flags: {ok2}/{total2} within band (worst z={worst2:.2f})",
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


def run_property_suite(seed: int, count: int) -> list[CheckReport]:
    """Run every checker over ``count`` generated instances.

    Each instance's exact build runs at epsilon 0.1.  Tree-shaped targets
    get the full set (the depth-based inequalities need the target's tree);
    truth-table targets get the trace checks.  The expensive Monte Carlo
    unbiasedness check runs on every 25th instance, from the first.
    """
    reports: list[CheckReport] = []
    for k in range(count):
        instance = generate_instance(seed * 1_000_003 + k)
        if instance.target_tree is not None:
            reports.append(check_total_influence_bounds(instance))
            reports.append(check_max_influence_bound(instance))
        reports.append(check_influence_error_variance_chain(instance))
        result = build_topdown_exact(
            instance.target_tree if instance.target_tree is not None else instance.oracle,
            instance.dist,
            epsilon=0.1,
        )
        reports.append(check_error_cost_bound(instance, result))
        reports.append(check_cost_telescoping(instance, result))
        if instance.target_tree is not None:
            reports.append(check_score_lower_bounds(instance, result, instance.target_tree))
            reports.append(check_size_bound(instance, result, instance.target_tree))
        if k % 25 == 0:
            reports.append(check_estimator_unbiasedness(instance, seed=seed))
    return reports
