"""Command-line harness.

Subcommands:

* ``run``    -- execute an experiment grid described by a JSON config and
  write the results CSV (plus a ``.timing.csv`` sidecar with wall times,
  kept out of the main file so reruns are byte-identical).
* ``props``  -- run the property-check suite over generated instances;
  exits 2 on any violation and writes replayable witness files.
* ``build``  -- one builder run against a target tree file, exact or
  sample-driven.
* ``verify`` -- exact disagreement probability of a hypothesis tree
  against a target tree under a distribution file.

Exit codes: 0 success, 1 usage error, 2 property violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields
from pathlib import Path

from .core import (
    DecisionTree,
    TreeFormatError,
    TreeOracle,
    parse_distribution,
    parse_tree,
    serialize_tree,
    size,
)
from .exact import DEFAULT_MAX_FREE_COORDS, tree_error
from .experiments import (
    ExperimentConfig,
    run_experiment,
    write_csv,
    write_results_csv,
    write_timing_csv,
)
from .greedy import GreedyStep, build_topdown_exact
from .sampling import PracticalStep, build_topdown_practical
from .verify import run_property_suite

USAGE_ERROR, VIOLATION = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; reserve that for violations
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greedytree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment config JSON")
    run.add_argument("--out", required=True, help="results CSV path")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1); each may also use one sample-drawing thread per CPU",
    )

    props = sub.add_parser("props", help="run the property-check suite")
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--count", type=int, default=200, help="number of generated instances")
    props.add_argument("--out", default=None, help="report CSV path")
    props.add_argument("--witness-dir", default=None, help="directory for violation witnesses")

    build = sub.add_parser("build", help="one builder run against a target tree file")
    build.add_argument("--target", required=True, help="target tree JSON file")
    build.add_argument("--dist", required=True, help="distribution JSON file")
    build.add_argument("--epsilon", type=float, required=True)
    build.add_argument("--delta", type=float, default=0.1)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--mode", choices=("exact", "practical"), default="practical")
    build.add_argument(
        "--halve-epsilon", action="store_true",
        help="run the builder at epsilon/2 for extra headroom",
    )
    build.add_argument("--max-splits", type=int, default=None)
    build.add_argument("--out", default=None, help="write the returned tree here")
    build.add_argument("--trace-out", default=None, help="write the per-step trace CSV here")
    build.add_argument("--usage-out", default=None, help="write the sample-usage CSV here")

    verify = sub.add_parser("verify", help="exact error of a hypothesis tree")
    verify.add_argument("--tree", required=True, help="hypothesis tree JSON file")
    verify.add_argument("--target", required=True, help="target tree JSON file")
    verify.add_argument("--dist", required=True, help="distribution JSON file")
    return parser


def _load_labeled_tree(path: str, n: int) -> DecisionTree:
    tree = parse_tree(Path(path).read_text(encoding="utf-8"), n=n)
    if not isinstance(tree, DecisionTree):
        raise TreeFormatError(f"{path}: expected a labeled tree")
    return tree


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    if config.experiment == "properties":
        return _run_props(config.seed, config.count, args.out, None)
    rows, aggregates, timings = run_experiment(config, jobs=args.jobs)
    write_results_csv(args.out, config, rows + aggregates)
    write_timing_csv(str(Path(args.out).with_suffix(".timing.csv")), timings)
    failed = sum(1 for r in rows if str(r["status"]).startswith("error:"))
    print(f"run: {len(rows)} runs over {len(aggregates)} grid points, {failed} failed -> {args.out}")
    return 0


def _run_props(seed: int, count: int, out: str | None, witness_dir: str | None) -> int:
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    reports = run_property_suite(seed, count)
    failures = [r for r in reports if not r.passed]
    witness_paths: dict[int, str] = {}
    if witness_dir:
        base = Path(witness_dir)
        base.mkdir(parents=True, exist_ok=True)
        for idx, report in enumerate(reports):
            if report.passed or not report.witness:
                continue
            stem = base / f"{report.check}-{report.seed}"
            for name, doc in report.witness.items():
                target = Path(f"{stem}-{name}")
                target.write_text(doc, encoding="utf-8")
                witness_paths.setdefault(idx, str(stem))
    if out:
        rows = (
            (r.check, r.seed, bool(r.passed), witness_paths.get(idx, ""),
             r.detail.replace(",", ";"))
            for idx, r in enumerate(reports)
        )
        write_csv(
            out, ("check", "seed", "passed", "witness", "detail"), rows,
            f"greedytree-props-v1 seed={seed} count={count}",
        )
    for r in failures:
        print(f"VIOLATION {r.check} seed={r.seed}: {r.detail}", file=sys.stderr)
    print(f"props: {len(reports)} checks on {count} instances, {len(failures)} violations")
    return VIOLATION if failures else 0


def _cmd_build(args) -> int:
    dist = parse_distribution(Path(args.dist).read_text(encoding="utf-8"))
    target = _load_labeled_tree(args.target, dist.n)
    epsilon = args.epsilon / 2.0 if args.halve_epsilon else args.epsilon
    if args.mode == "exact":
        result = build_topdown_exact(target, dist, epsilon, max_splits=args.max_splits)
        step_type = GreedyStep
    else:
        result = build_topdown_practical(
            TreeOracle(target, dist.n), dist, epsilon, args.delta,
            seed=args.seed, max_splits=args.max_splits,
        )
        step_type = PracticalStep
        if args.usage_out:
            write_csv(
                args.usage_out,
                ("step", "leaves", "M_S", "M_LL", "M_EE",
                 "cumulative_label_queries", "cumulative_random_draws"),
                map(astuple, result.usage),
            )
    if args.trace_out:
        write_csv(args.trace_out, [f.name for f in fields(step_type)], map(astuple, result.steps))
    if args.out:
        Path(args.out).write_text(serialize_tree(result.tree) + "\n", encoding="utf-8")
    err = ""
    if dist.n <= DEFAULT_MAX_FREE_COORDS:
        err = f" exact_error={tree_error(result.tree, TreeOracle(target, dist.n), dist)!r}"
    print(
        f"build[{args.mode}]: size={size(result.tree)} terminated={result.terminated}"
        f" epsilon={epsilon!r}{err}"
    )
    return 0


def _cmd_verify(args) -> int:
    dist = parse_distribution(Path(args.dist).read_text(encoding="utf-8"))
    target = _load_labeled_tree(args.target, dist.n)
    hypothesis = _load_labeled_tree(args.tree, dist.n)
    err = tree_error(hypothesis, TreeOracle(target, dist.n), dist)
    print(f"exact_error={err!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "props":
            return _run_props(args.seed, args.count, args.out, args.witness_dir)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (TreeFormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
