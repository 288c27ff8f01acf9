"""Experiment driver: seeded grids of practical-builder runs, CSV output.

A config describes a grid (dimension x accuracy x bias x target family) and
a repetition count.  Every repetition draws a fresh target and builder seed
from streams keyed by (config seed, grid point, repetition), so parallel
and serial execution produce the same rows and a rerun with the same config
is byte-identical.  Wall-clock timings are real but nondeterministic, so
they go to a sidecar file instead of the results CSV.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ProductDistribution, TreeOracle, size
from .exact import DEFAULT_MAX_FREE_COORDS, tree_error
from .sampling import build_topdown_practical
from .targets import generate_balanced_target, generate_path_target

__all__ = [
    "ExperimentConfig",
    "TargetSpec",
    "aggregate_rows",
    "run_experiment",
    "write_csv",
    "write_results_csv",
    "write_timing_csv",
    "RESULT_FIELDS",
]

EXPERIMENTS = ("size-vs-epsilon", "size-vs-n", "single-run", "properties")

RESULT_FIELDS = [
    "row_type",
    "experiment",
    "point",
    "n",
    "epsilon",
    "delta",
    "bias",
    "target_family",
    "target_param",
    "target_size",
    "rep",
    "run_seed",
    "status",
    "terminated",
    "size",
    "exact_error",
    "steps",
    "label_queries",
    "random_draws",
    "size_std",
    "error_std",
    "errors_within_eps",
    "runs",
    "config_sha",
]


@dataclass(frozen=True)
class TargetSpec:
    family: str  # "balanced" or "path"
    depth: int | None = None  # balanced only
    length: int | None = None  # path only; defaults to the ambient dimension

    def __post_init__(self):
        if self.family not in ("balanced", "path"):
            raise ValueError(f"unknown target family {self.family!r}")
        if self.family == "balanced" and self.depth is None:
            raise ValueError("balanced targets need a depth")

    def param(self, n: int) -> int:
        if self.family == "balanced":
            return int(self.depth)  # type: ignore[arg-type]
        return int(self.length) if self.length is not None else n

    def ground_truth_size(self, n: int) -> int:
        if self.family == "balanced":
            return 1 << self.param(n)
        return self.param(n) + 1

    def generate(self, n: int, rng: np.random.Generator):
        if self.family == "balanced":
            return generate_balanced_target(self.param(n), n, rng)
        return generate_path_target(self.param(n), rng)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: tuple[int, ...]
    epsilons: tuple[float, ...]
    delta: float
    biases: tuple[float, ...]
    targets: tuple[TargetSpec, ...]
    repetitions: int
    seed: int
    halve_epsilon: bool = False
    max_splits: int | None = None
    count: int = 200  # property-suite instances (experiment == "properties")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        for eps in self.epsilons:
            if not 0.0 < eps < 1.0:
                raise ValueError(f"epsilon must lie in (0,1), got {eps}")
        for p in self.biases:
            if not 0.0 < p < 1.0:
                raise ValueError(f"bias must lie in (0,1), got {p}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.max_splits is not None and self.max_splits < 0:
            raise ValueError(f"max_splits must be >= 0, got {self.max_splits}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        for n in self.n:
            for t in self.targets:
                if t.family == "balanced" and t.param(n) > n:
                    raise ValueError(f"balanced depth {t.param(n)} exceeds n={n}")
                if t.family == "path" and t.param(n) > n:
                    raise ValueError(f"path length {t.param(n)} exceeds n={n}")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        def as_tuple(v):
            return tuple(v) if isinstance(v, (list, tuple)) else (v,)

        targets = tuple(
            TargetSpec(t["family"], t.get("depth"), t.get("length"))
            for t in obj.get("targets", [])
        )
        return ExperimentConfig(
            experiment=obj["experiment"],
            n=tuple(int(v) for v in as_tuple(obj.get("n", ()))),
            epsilons=tuple(float(v) for v in as_tuple(obj.get("epsilon", ()))),
            delta=float(obj.get("delta", 0.1)),
            biases=tuple(float(v) for v in as_tuple(obj.get("biases", ()))),
            targets=targets,
            repetitions=int(obj.get("repetitions", 1)),
            seed=int(obj.get("seed", 0)),
            halve_epsilon=bool(obj.get("halve_epsilon", False)),
            max_splits=None if obj.get("max_splits") is None else int(obj["max_splits"]),
            count=int(obj.get("count", 200)),
        )

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "n": list(self.n),
            "epsilon": list(self.epsilons),
            "delta": self.delta,
            "biases": list(self.biases),
            "targets": [
                {"family": t.family, "depth": t.depth, "length": t.length} for t in self.targets
            ],
            "repetitions": self.repetitions,
            "seed": self.seed,
            "halve_epsilon": self.halve_epsilon,
            "max_splits": self.max_splits,
            "count": self.count,
        }

    def sha(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def grid(self) -> list[tuple[int, float, float, TargetSpec]]:
        return [
            (n, eps, bias, target)
            for n in self.n
            for eps in self.epsilons
            for bias in self.biases
            for target in self.targets
        ]


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0])


def _point_label(n: int, eps: float, bias: float, target: TargetSpec) -> str:
    return f"n{n}-eps{eps}-p{bias}-{target.family}{target.param(n)}"


def _execute_run(args: tuple) -> tuple[dict, float]:
    config, point_idx, rep = args
    n, eps, bias, target_spec = config.grid()[point_idx]
    eps_run = eps / 2.0 if config.halve_epsilon else eps
    dist = ProductDistribution([bias] * n)
    target_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, point_idx, rep, 1])
    )
    row = {
        "row_type": "run",
        "experiment": config.experiment,
        "point": _point_label(n, eps, bias, target_spec),
        "n": n,
        "epsilon": eps,
        "delta": config.delta,
        "bias": bias,
        "target_family": target_spec.family,
        "target_param": target_spec.param(n),
        "target_size": target_spec.ground_truth_size(n),
        "rep": rep,
        "run_seed": _derived_seed(config.seed, point_idx, rep, 2),
        "config_sha": config.sha()[:12],
    }
    start = time.perf_counter()
    try:
        target = target_spec.generate(n, target_rng)
        oracle = TreeOracle(target, n)
        result = build_topdown_practical(
            oracle, dist, eps_run, config.delta, seed=row["run_seed"],
            max_splits=config.max_splits,
        )
        row.update(
            status="ok" if result.terminated else result.stop_reason,
            terminated=result.terminated,
            size=size(result.tree),
            steps=len(result.steps),
            label_queries=result.label_queries,
            random_draws=result.random_draws,
        )
        if n <= DEFAULT_MAX_FREE_COORDS:
            row["exact_error"] = tree_error(result.tree, oracle, dist)
        else:
            row["exact_error"] = ""
    except Exception as exc:  # per-run failures become rows, not aborts
        row.update(status=f"error:{type(exc).__name__}", terminated="", size="",
                   exact_error="", steps="", label_queries="", random_draws="")
    return row, time.perf_counter() - start


def run_experiment(
    config: ExperimentConfig, jobs: int = 1
) -> tuple[list[dict], list[dict], list[dict]]:
    """Execute the grid; returns (run rows, aggregate rows, timing rows)."""
    if config.experiment == "properties":
        raise ValueError("property suites are driven by the props entry point")
    tasks = [
        (config, point_idx, rep)
        for point_idx in range(len(config.grid()))
        for rep in range(config.repetitions)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_execute_run, tasks, chunksize=1))
    else:
        outcomes = [_execute_run(t) for t in tasks]
    rows = [row for row, _ in outcomes]
    timings = [
        {"point": row["point"], "rep": row["rep"], "wall_ms": round(1000.0 * dt, 3)}
        for row, dt in outcomes
    ]
    rows.sort(key=lambda r: (r["point"], r["rep"]))
    return rows, aggregate_rows(rows), timings


def aggregate_rows(run_rows: list[dict]) -> list[dict]:
    """Per-point mean and sample standard deviation over repetitions.

    Failed runs are excluded from the numeric aggregates but counted in
    ``runs``.  Recomputing these from the raw rows must reproduce them
    exactly; the tests rely on the float64 round trip through repr.
    """
    by_point: dict[str, list[dict]] = {}
    for row in run_rows:
        by_point.setdefault(row["point"], []).append(row)
    out = []
    for point in sorted(by_point):
        rows = by_point[point]
        good = [r for r in rows if r["status"] in ("ok", "max_splits", "no_splittable_leaf")]
        base = dict(rows[0])
        agg = {k: base[k] for k in (
            "experiment", "point", "n", "epsilon", "delta", "bias",
            "target_family", "target_param", "target_size", "config_sha",
        )}
        agg.update(row_type="aggregate", rep="", run_seed="", status="", terminated="")
        for field in ("size", "exact_error", "steps", "label_queries", "random_draws"):
            values = np.array([float(r[field]) for r in good if r[field] != ""], dtype=np.float64)
            agg[field] = float(np.mean(values)) if len(values) else ""
        sizes = np.array([float(r["size"]) for r in good if r["size"] != ""], dtype=np.float64)
        errors = np.array(
            [float(r["exact_error"]) for r in good if r["exact_error"] != ""], dtype=np.float64
        )
        agg["size_std"] = float(np.std(sizes, ddof=1)) if len(sizes) > 1 else ""
        agg["error_std"] = float(np.std(errors, ddof=1)) if len(errors) > 1 else ""
        agg["errors_within_eps"] = int(
            np.count_nonzero(errors <= float(base["epsilon"]))
        ) if len(errors) else ""
        agg["runs"] = len(rows)
        out.append(agg)
    return out


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """The one CSV writer: an optional '# comment' line, the header, then one
    line per row.  Floats are written with ``repr``, booleans as
    true/false and ``None`` as an empty cell, so the file is byte-stable."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(path: str, config: ExperimentConfig, rows: list[dict]) -> None:
    """Fixed-schema CSV with a '#' provenance header; byte-stable for a
    fixed config and seed."""
    write_csv(
        path, RESULT_FIELDS, ([row.get(f, "") for f in RESULT_FIELDS] for row in rows),
        f"greedytree-experiment-v1 config_sha256={config.sha()} seed={config.seed}",
    )


def write_timing_csv(path: str, timings: list[dict]) -> None:
    write_csv(
        path, ("point", "rep", "wall_ms"), ((t["point"], t["rep"], t["wall_ms"]) for t in timings)
    )
