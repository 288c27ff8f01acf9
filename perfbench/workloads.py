"""The benchmark's workloads: inputs made from the seed, the timed call, and
the deterministic outputs each repetition must reproduce.

Every workload runs in the benchmark's single process: the grid uses
``jobs=1`` and nothing starts threads or child processes.  All targets and
builder seeds derive from the workload seed.  Functions are looked up on the
module objects at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np


@dataclass
class Outcome:
    """Deterministic outputs of one timed repetition.

    ``failed`` counts runs that raised, did not terminate or failed a count
    check; runs over epsilon are found by the exact check after timing stops.
    """

    digest: str
    runs: int
    failed: int
    counts: dict[str, Any]  # label_queries, random_draws and the output trees' sizes


def _sha(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0])


def _target_rng(seed: int, key: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, key, k]))


class GridWorkload:
    """The C6 size-vs-epsilon grid through ``experiments.run_experiment`` and
    ``write_results_csv``; the digest is that of the CSV bytes.

    Two repetitions per grid point: the few runs at the smallest epsilon on
    balanced targets take most of the time and vary in size with the seed,
    so with one repetition the grid's label queries spread by 10% between
    seeds, and with two by 5%.
    """

    key = 1
    why = ("60 short practical runs through small deep and bushy trees at skewed biases: "
           "per-call overhead, bare-tree routing, exact-error column and the experiments module")

    def __init__(self, n=12, epsilons=(0.10, 0.15, 0.20, 0.25, 0.30), biases=(0.5, 0.3, 0.1), depth=4):
        self.params = dict(
            experiment="size-vs-epsilon", n=n, epsilon=list(epsilons), delta=0.1,
            biases=list(biases), targets=[{"family": "balanced", "depth": depth}, {"family": "path"}],
            repetitions=2, max_splits=400,
        )

    def setup(self, m, seed: int, out_dir: Path) -> dict:
        config = m.experiments.ExperimentConfig.from_dict(dict(self.params, seed=seed))
        return {"config": config, "csv": out_dir / f"grid-seed{seed}.csv"}

    def run(self, m, state: dict) -> list[dict]:
        rows, aggregates, _ = m.experiments.run_experiment(state["config"], jobs=1)
        m.experiments.write_results_csv(str(state["csv"]), state["config"], rows + aggregates)
        return rows

    def outcome(self, m, state: dict, rows: list[dict]) -> Outcome:
        return Outcome(
            digest=hashlib.sha256(state["csv"].read_bytes()).hexdigest(),
            runs=len(rows),
            failed=sum(r["status"] != "ok" for r in rows),
            counts={
                "label_queries": sum(int(r["label_queries"]) for r in rows if r["label_queries"] != ""),
                "random_draws": sum(int(r["random_draws"]) for r in rows if r["random_draws"] != ""),
                "sizes": [int(r["size"]) for r in rows if r["size"] != ""],
            },
        )

    def errors_over_eps(self, m, state: dict, rows: list[dict]) -> list[float]:
        """Exact error / epsilon per run, from the CSV's exact-error column;
        a run without one counts as infinitely over."""
        return [float(r["exact_error"]) / float(r["epsilon"]) if r["exact_error"] != "" else np.inf
                for r in rows]


class _BuilderWorkload:
    """Builder runs on the ``(oracle, dist, ...)`` cases ``setup`` returns,
    each through a ``CountingOracle``; the digest covers every result's repr
    (trees, step trace, counts) and the oracle's query count."""

    epsilon: float

    def build(self, m, oracle, case):
        raise NotImplementedError

    def run(self, m, cases: list) -> list:
        raw = []
        for case in cases:
            oracle = m.core.CountingOracle(case[0])
            try:
                raw.append((self.build(m, oracle, case), oracle.queries))
            except Exception as exc:  # a raising run is a failed run, not an aborted benchmark
                raw.append((exc, oracle.queries))
        return raw

    def outcome(self, m, cases: list, raw: list) -> Outcome:
        parts, sizes, failed = [], [], 0
        counts = {"label_queries": 0, "random_draws": 0}
        for result, queries in raw:
            counts["label_queries"] += queries
            if isinstance(result, Exception):
                parts.append(f"error:{type(result).__name__}")
                failed += 1
                continue
            parts += [repr(result), str(queries)]
            sizes.append(m.core.size(result.tree))
            counts["random_draws"] += getattr(result, "random_draws", 0)
            # A builder that counts its own label queries must agree with the oracle.
            failed += not result.terminated or getattr(result, "label_queries", queries) != queries
        counts["sizes"] = sizes
        return Outcome(_sha(parts), len(raw), failed, counts)

    def errors_over_eps(self, m, cases: list, raw: list) -> list[float]:
        return [np.inf if isinstance(result, Exception)
                else m.exact.tree_error(result.tree, case[0], case[1]) / self.epsilon
                for (result, _), case in zip(raw, cases)]


class PracticalWorkload(_BuilderWorkload):
    """One ``build_topdown_practical`` run on a path target.

    At uniform bias every path target is the same function up to flipping
    queried bits, and its influences halve down the path, so the greedy
    choices and the stopping step do not depend on the seed: every seed
    makes the same number of label queries.  Balanced targets tie at every
    depth, and the sampling noise that breaks the ties moved one run's size
    between 22 and 36 leaves from seed to seed.
    """

    key = 2
    why = ("one n=20 practical run on a path target at eps=0.03: the 20 per-coordinate "
           "pair pools dominate time and memory, and the work is the same for every seed")

    def __init__(self, n=20, epsilon=0.03):
        self.n, self.epsilon = n, epsilon

    def setup(self, m, seed: int, out_dir: Path) -> list[tuple]:
        target = m.targets.generate_path_target(self.n, _target_rng(seed, self.key, 0))
        dist = m.core.ProductDistribution([0.5] * self.n)
        return [(m.core.TreeOracle(target, self.n), dist, _derived_seed(seed, self.key, 1))]

    def build(self, m, oracle, case):
        return m.sampling.build_topdown_practical(oracle, case[1], self.epsilon, 0.1, seed=case[2])


class ExactWorkload(_BuilderWorkload):
    """``build_topdown_exact`` on one balanced target per bias."""

    key = 3
    why = ("exact builder at n=21 on three depth-6 balanced targets: enumeration, labeling "
           "and the influence reduction dominate; the sampling layer never runs")

    def __init__(self, n=21, depth=6, epsilon=0.01):
        self.n, self.depth, self.epsilon = n, depth, epsilon

    def setup(self, m, seed: int, out_dir: Path) -> list[tuple]:
        return [
            (m.core.TreeOracle(m.targets.generate_balanced_target(
                self.depth, self.n, _target_rng(seed, self.key, k)), self.n),
             m.core.ProductDistribution([bias] * self.n))
            for k, bias in enumerate((0.5, 0.3, 0.1))
        ]

    def build(self, m, oracle, case):
        return m.greedy.build_topdown_exact(oracle, case[1], self.epsilon)


WORKLOADS = {
    "grid-n12": GridWorkload(),
    "practical-n20": PracticalWorkload(),
    "exact-n21": ExactWorkload(),
}
