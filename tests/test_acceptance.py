"""Acceptance suite: one test per graduation criterion.

Each criterion prints one ``ACCEPTANCE`` line (visible with ``pytest -rP``
or ``-s``) and asserts its stated tolerances.  The expensive shared corpora
(the 200-instance lemma corpus and the two experiment grids) are built once
per session.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from greedytree.core import (
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    TreeOracle,
    average_depth,
    max_depth,
    size,
)
from greedytree.exact import SubfunctionView, subfunction_summary, tree_error
from greedytree.experiments import ExperimentConfig, run_experiment
from greedytree.greedy import build_topdown_exact, size_bound_log
from greedytree.sampling import build_topdown_practical
from greedytree.targets import generate_balanced_target, generate_path_target
from greedytree.verify import (
    IDENTITY_TOL,
    check_cost_telescoping,
    check_error_cost_bound,
    check_influence_error_variance_chain,
    check_max_influence_bound,
    check_score_lower_bounds,
    check_size_bound,
    check_total_influence_bounds,
    dictator_normalization_probe,
    generate_instance,
    _random_bare_tree,
    _unbiasedness_probes,
)

SUITE_SEED = 20250810


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def lemma_corpus():
    """200 tree-backed random instances with their exact greedy traces."""
    corpus = []
    for k in range(200):
        instance = generate_instance(
            SUITE_SEED * 1_000_003 + k, max_n=6, kinds=("tree", "balanced", "path")
        )
        result = build_topdown_exact(instance.target_tree, instance.dist, epsilon=0.1)
        corpus.append((instance, result))
    return corpus


def test_criterion_1_lemma_identity_suite(lemma_corpus):
    """Error/cost bound, influence/depth bounds, the error-variance chain,
    and exact cost telescoping: zero violations on 200 instances in under
    two minutes."""
    start = time.monotonic()
    failures = []
    for instance, result in lemma_corpus:
        for report in (
            check_error_cost_bound(instance, result),
            check_total_influence_bounds(instance),
            check_influence_error_variance_chain(instance),
            check_cost_telescoping(instance, result),
        ):
            if not report.passed:
                failures.append(report)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 120.0
    _report(
        "C1 lemma-identity-suite", ok,
        f"{4 * len(lemma_corpus)} checks over {len(lemma_corpus)} instances, "
        f"{len(failures)} violations, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_2_influence_normalization_probe(lemma_corpus):
    """Which influence normalization satisfies max-influence >= var/avg-depth.

    Outcome (the resolution of the open normalization question): the flip
    form satisfies the bound as imported on the dictator and on all 200
    instances; the definitional re-randomization form fails it on the
    dictator but satisfies the factor-2 variant everywhere.  The artifact
    adopts the re-randomization form, under which every other lemma check
    in the suite passes simultaneously; the flip form cannot be adopted
    globally because it breaks the influence <= 2*error chain on biased
    dictators.
    """
    probe = dictator_normalization_probe()
    assert probe["flip_satisfies_bound"] is True
    assert probe["rerandomization_satisfies_bound"] is False
    assert probe["rerandomization_satisfies_halved_bound"] is True

    flip_ok = rr_half_ok = 0
    rr_nominal_failures = 0
    for instance, _ in lemma_corpus:
        report = check_max_influence_bound(instance)
        assert report.passed, report.detail  # flip + halved re-randomization
        flip_ok += 1
        rr_half_ok += 1
        if "rerandomization_nominal=violated" in report.detail:
            rr_nominal_failures += 1

    # the flip form is not adoptable for the whole suite: biased dictator
    dist = ProductDistribution([0.3])
    s = subfunction_summary(
        SubfunctionView(TreeOracle(DecisionTree(Internal(0, Leaf(-1), Leaf(1))), 1)), dist
    )
    assert float(np.max(s.flip_influences)) > 2 * s.error + 1e-9
    assert float(np.max(s.influences)) <= 2 * s.error + IDENTITY_TOL

    _report(
        "C2 normalization-probe", True,
        "resolution: flip form satisfies the imported bound on the dictator and "
        f"all {len(lemma_corpus)} instances; re-randomization (adopted) fails the nominal bound on "
        f"{rr_nominal_failures} instances incl. the dictator but satisfies the factor-2 variant and "
        "every other lemma check simultaneously; flip breaks the error chain on biased dictators",
    )


def test_criterion_3_greedy_step_bounds(lemma_corpus):
    """Per-step score floors and the final size bound on 200 traces.

    Scores are in the re-randomization form.  Asserted at every step: the
    OSSS floor score >= completion_error / (avg_depth + (j - 1) * depth),
    derived in the ``greedytree.verify`` docstring, and the cost floor
    score >= cost / (j * depth * avg_depth); asserted per trace: the size
    bound.  Recorded, not asserted: the nominal floor 2 eps/(j avg_depth)
    and the halved floor eps/(j avg_depth).  Neither is a theorem: biased
    dictators break the nominal one at the root, and a gated majority
    (``tests/test_verify.py``) breaks the halved one at j = 2.  Each
    ``check_score_lower_bounds`` report must pass, and the nominal count in
    its detail must match the one taken here.
    """
    nominal_viol = halved_viol = error_viol = cost_viol = size_viol = steps_checked = 0
    report_mismatches = []
    for instance, result in lemma_corpus:
        gt = instance.target_tree
        d_opt = max_depth(gt)
        avg_opt = average_depth(gt, instance.dist)
        eps = result.epsilon
        instance_nominal = 0
        for step in result.steps:
            steps_checked += 1
            j = step.leaf_count
            if step.score < step.completion_error / (avg_opt + (j - 1) * d_opt) - IDENTITY_TOL:
                error_viol += 1
            if step.completion_error > eps and avg_opt > 0:
                if step.score < 2 * eps / (j * avg_opt) - IDENTITY_TOL:
                    instance_nominal += 1
                if step.score < eps / (j * avg_opt) - IDENTITY_TOL:
                    halved_viol += 1
            if d_opt and avg_opt:
                if step.score < step.cost_before / (j * d_opt * avg_opt) - IDENTITY_TOL:
                    cost_viol += 1
        nominal_viol += instance_nominal
        report = check_score_lower_bounds(instance, result, gt)
        expected = f"{len(result.steps)} steps, nominal_error_floor_violations={instance_nominal}"
        if report.detail != expected or not report.passed:
            report_mismatches.append(f"seed {instance.seed}: {report.detail}")
        if result.terminated:
            if math.log(size(result.tree)) > size_bound_log(eps, d_opt, avg_opt) + 1e-9:
                size_viol += 1
        assert check_size_bound(instance, result, gt).passed
    ok = error_viol == 0 and cost_viol == 0 and size_viol == 0 and not report_mismatches
    _report(
        "C3 greedy-step-bounds", ok,
        f"{len(lemma_corpus)} traces / {steps_checked} steps: asserted violations "
        f"error-floor={error_viol}, cost-floor={cost_viol}, size-bound={size_viol}, "
        f"checker-mismatch={len(report_mismatches)}; recorded error-floor violations "
        f"nominal={nominal_viol} halved={halved_viol}"
        + ("; " + "; ".join(report_mismatches) if report_mismatches else ""),
    )


def test_criterion_4_estimator_unbiasedness():
    """Monte Carlo means over 200 pools of 1000 pairs match exact scores
    within 3 standard errors on at least 95 percent of probes."""
    start = time.monotonic()
    within = total = 0
    for k in range(20):
        instance = generate_instance(77_000 + k, max_n=6)
        rng = np.random.default_rng(np.random.SeedSequence([SUITE_SEED, 40, k]))
        bare = _random_bare_tree(instance, rng)
        ok, probes, _ = _unbiasedness_probes(
            instance, bare, resamples=200, pair_count=1000, seed=SUITE_SEED + k
        )
        within += ok
        total += probes
    rate = within / total
    elapsed = time.monotonic() - start
    _report(
        "C4 estimator-unbiasedness", rate >= 0.95,
        f"{within}/{total} probes within 3 standard errors ({100 * rate:.2f}%), {elapsed:.0f}s",
    )


def _reference_sizes(config: ExperimentConfig, point_idx: int) -> list[int]:
    """Exact-influence greedy sizes on the same targets the grid point used."""
    n, eps, bias, target_spec = config.grid()[point_idx]
    eps_run = eps / 2.0 if config.halve_epsilon else eps
    dist = ProductDistribution([bias] * n)
    sizes = []
    for rep in range(config.repetitions):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, point_idx, rep, 1]))
        target = target_spec.generate(n, rng)
        sizes.append(size(build_topdown_exact(target, dist, eps_run).tree))
    return sizes


def _size_band_check(config: ExperimentConfig, aggregates, nominal_size: int):
    """Factor-3 size band against the nominal ground-truth size.

    The lower side of the band is only meaningful when the target is not
    epsilon-compressible; the idealized exact-influence greedy provides the
    arbiter.  Where the exact reference itself stays above nominal/3 the
    literal band is enforced; where the reference compresses below it, the
    sample-driven builder must track the reference within a factor 3.
    """
    lines = []
    failures = []
    by_point = {a["point"]: a for a in aggregates}
    for point_idx, (n, eps, bias, target_spec) in enumerate(config.grid()):
        agg = by_point[f"n{n}-eps{eps}-p{bias}-{target_spec.family}{target_spec.param(n)}"]
        mean_size = float(agg["size"])
        upper = 3.0 * nominal_size
        lower = nominal_size / 3.0
        ref_mean = float(np.mean(_reference_sizes(config, point_idx)))
        if mean_size > upper:
            failures.append(f"{agg['point']}: mean size {mean_size:.2f} > {upper:.1f}")
        if ref_mean >= lower:
            if mean_size < lower:
                failures.append(
                    f"{agg['point']}: mean size {mean_size:.2f} < {lower:.2f} "
                    f"(exact reference {ref_mean:.2f} meets the band)"
                )
            band = "literal"
        else:
            if not (ref_mean / 3.0 <= mean_size <= max(upper, 3.0 * ref_mean)):
                failures.append(
                    f"{agg['point']}: mean size {mean_size:.2f} does not track "
                    f"exact reference {ref_mean:.2f}"
                )
            band = "vs-exact-reference (target epsilon-compressible)"
        lines.append(f"{agg['point']}: practical {mean_size:.2f}, exact {ref_mean:.2f}, {band}")
    return lines, failures


@pytest.fixture(scope="session")
def size_vs_n_rows():
    config = ExperimentConfig.from_dict({
        "experiment": "size-vs-n",
        "n": [3, 4, 5, 6, 7],
        "epsilon": 0.15,
        "delta": 0.1,
        "biases": [0.5, 0.3, 0.1],
        "targets": [{"family": "balanced", "depth": 3}, {"family": "path"}],
        "repetitions": 6,
        "seed": SUITE_SEED,
        "max_splits": 256,
    })
    start = time.monotonic()
    rows, aggregates, _ = run_experiment(config)
    return config, rows, aggregates, time.monotonic() - start


def test_criterion_5_size_vs_dimension(size_vs_n_rows):
    """Dimension sweep: sizes stay in the factor-3 band around 8 leaves
    (or track the exact-influence reference where targets compress), at
    least 95 percent of returned trees are within epsilon, and the whole
    grid runs inside 30 minutes."""
    config, rows, aggregates, elapsed = size_vs_n_rows
    errors = np.array([float(r["exact_error"]) for r in rows if r["exact_error"] != ""])
    assert len(errors) == len(rows)
    good = int(np.count_nonzero(errors <= 0.15))
    rate = good / len(rows)
    lines, failures = _size_band_check(config, aggregates, nominal_size=8)
    for line in lines:
        print("  C5", line)
    ok = not failures and rate >= 0.95 and elapsed <= 1800.0
    _report(
        "C5 size-vs-dimension", ok,
        f"{len(rows)} runs, exact error <= 0.15 in {good}/{len(rows)} ({100 * rate:.1f}%), "
        f"{len(failures)} size-band failures, {elapsed:.0f}s (budget 1800s)"
        + ("; " + "; ".join(failures) if failures else ""),
    )


@pytest.fixture(scope="session")
def size_vs_epsilon_rows():
    config = ExperimentConfig.from_dict({
        "experiment": "size-vs-epsilon",
        "n": 12,
        "epsilon": [0.10, 0.15, 0.20, 0.25, 0.30],
        "delta": 0.1,
        "biases": [0.5, 0.3, 0.1],
        "targets": [{"family": "balanced", "depth": 4}, {"family": "path"}],
        "repetitions": 6,
        "seed": SUITE_SEED + 1,
        "max_splits": 400,
    })
    start = time.monotonic()
    rows, aggregates, _ = run_experiment(config)
    return config, rows, aggregates, time.monotonic() - start


def test_criterion_6_size_vs_epsilon(size_vs_epsilon_rows):
    """Accuracy sweep at n=12 plus the full-scale n=20 smoke point."""
    config, rows, aggregates, elapsed = size_vs_epsilon_rows
    errors = np.array([float(r["exact_error"]) for r in rows if r["exact_error"] != ""])
    assert len(errors) == len(rows)
    over = [r for r in rows if float(r["exact_error"]) > float(r["epsilon"])]
    lines, failures = _size_band_check(config, aggregates, nominal_size=16)
    for line in lines:
        print("  C6", line)

    # full-scale smoke: the n=20 configuration must run to completion
    n = 20
    dist = ProductDistribution([0.5] * n)
    rng = np.random.default_rng(np.random.SeedSequence([SUITE_SEED, 6, 20]))
    smoke_detail = []
    for target in (generate_balanced_target(4, n, rng), generate_path_target(15, rng)):
        oracle = TreeOracle(target, n)
        result = build_topdown_practical(oracle, dist, 0.30, 0.1, seed=SUITE_SEED, max_splits=400)
        err = tree_error(result.tree, oracle, dist)
        smoke_detail.append(f"size={size(result.tree)} err={err:.3f}")
        assert result.terminated
        assert err <= 0.30
    ok = not failures and not over
    _report(
        "C6 size-vs-epsilon", ok,
        f"{len(rows)} runs at n=12, {len(over)} runs over epsilon, "
        f"{len(failures)} size-band failures, {elapsed:.0f}s; "
        f"n=20 smoke (eps=0.30, p=0.5): {', '.join(smoke_detail)}"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_7_depth_numerics():
    """Path-tree average depth matches the closed-form sum to 1e-12 and
    stays below 2; complete trees have max depth = average depth = log2(size)."""
    worst = 0.0
    for n in range(1, 11):
        tree = generate_path_target(n, np.random.default_rng(n))
        dist = ProductDistribution([0.5] * n)
        expected = sum(k * 2.0**-k for k in range(1, n)) + n * 2.0 ** -(n - 1)
        got = average_depth(tree, dist)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-12
        assert got <= 2.0
    for depth in (1, 2, 3, 4):
        tree = generate_balanced_target(depth, 2 * depth, np.random.default_rng(depth))
        dist = ProductDistribution([0.5] * (2 * depth))
        assert max_depth(tree) == depth
        assert average_depth(tree, dist) == float(depth)
        assert math.log2(size(tree)) == depth
    _report(
        "C7 depth-numerics", True,
        f"path average depths match the closed form (worst |diff| {worst:.2e}) and stay <= 2; "
        "complete trees report depth = average depth = log2(size) exactly",
    )


def test_criterion_8_sample_complexity_scaling():
    """Cumulative draws fit C * J ln J * n ln n / eps^2 * ln(1/delta)
    across the (n, eps) grid within a factor of 10 of a single constant."""
    delta = 0.1
    ratios = []
    details = []
    for n in (4, 6, 8):
        for eps in (0.15, 0.30):
            draws = []
            steps = []
            for rep in range(3):
                rng = np.random.default_rng(np.random.SeedSequence([SUITE_SEED, 8, n, rep]))
                target = generate_balanced_target(3, n, rng)
                dist = ProductDistribution([0.3] * n)
                result = build_topdown_practical(
                    TreeOracle(target, n), dist, eps, delta,
                    seed=_stable_seed(n, rep, int(eps * 100)),
                )
                draws.append(result.random_draws)
                steps.append(result.steps[-1].step)
            j = float(np.mean(steps))
            form = j * math.log(max(j, 2.0)) * n * math.log(n) / eps**2 * math.log(1 / delta)
            measured = float(np.mean(draws))
            ratios.append(measured / form)
            details.append(f"n={n} eps={eps}: J={j:.1f} draws={measured:.3g}")
    scale = math.exp(float(np.mean(np.log(ratios))))  # geometric-mean fit of C
    deviation = max(max(r / scale for r in ratios), max(scale / r for r in ratios))
    for d in details:
        print("  C8", d)
    _report(
        "C8 sample-complexity-scaling", deviation <= 10.0,
        f"fitted C={scale:.3g}, max deviation factor {deviation:.2f} (budget 10) "
        f"over {len(ratios)} grid points",
    )


def _stable_seed(*key: int) -> int:
    return int(np.random.SeedSequence([SUITE_SEED, *key]).generate_state(1, dtype=np.uint64)[0])


def test_criterion_9_determinism(tmp_path: Path):
    """Identical master seed and config produce byte-identical CSV output
    across two consecutive invocations of the CLI."""
    import json as _json

    from greedytree.cli import main

    cfg = {
        "experiment": "single-run",
        "n": 4,
        "epsilon": 0.2,
        "delta": 0.1,
        "biases": [0.3, 0.5],
        "targets": [{"family": "balanced", "depth": 2}, {"family": "path"}],
        "repetitions": 3,
        "seed": SUITE_SEED,
        "max_splits": 64,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_json.dumps(cfg))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    props_a, props_b = tmp_path / "pa.csv", tmp_path / "pb.csv"
    assert main(["props", "--seed", "17", "--count", "6", "--out", str(props_a)]) == 0
    assert main(["props", "--seed", "17", "--count", "6", "--out", str(props_b)]) == 0
    props_identical = props_a.read_bytes() == props_b.read_bytes()
    _report(
        "C9 determinism", identical and props_identical,
        f"experiment CSV byte-identical={identical}, props report byte-identical={props_identical}",
    )
