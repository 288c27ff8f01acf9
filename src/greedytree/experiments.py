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
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .core import MAX_CODE_BITS, ProductDistribution, TreeOracle, size
from .exact import EnumerationLimitError, tree_error
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
        unread = "length" if self.family == "balanced" else "depth"
        if getattr(self, unread) is not None:
            raise ValueError(f"target key {unread!r} is not read by {self.family} targets")
        if self.family == "balanced" and self.depth is None:
            raise ValueError("balanced targets need a depth")
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"target key 'depth' must be >= 0, got {self.depth}")
        if self.length is not None and self.length < 1:
            raise ValueError(f"target key 'length' must be >= 1, got {self.length}")

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


def _json(kind: type, name: str):
    """A converter that takes a JSON value of ``kind`` only, never a bool
    where ``kind`` is a number; a JSON integer is also a number."""
    kinds = (int, float) if kind is float else (kind,)

    def convert(v):
        if not isinstance(v, kinds) or (isinstance(v, bool) and kind is not bool):
            raise ValueError(f"expected a JSON {name}, got {v!r}")
        return kind(v)

    return convert


_BOOL, _INT, _NUMBER, _STR = (_json(bool, "bool"), _json(int, "integer"),
                              _json(float, "number"), _json(str, "string"))


def _tuple_of(convert):
    """A grid axis: a list of values, or one value standing for a list of one."""
    return lambda v: tuple(map(convert, v if isinstance(v, (list, tuple)) else [v]))


def _from_doc(cls, doc, table, what: str):
    """``cls`` from the JSON object ``doc`` through ``table``, its (document
    key, field, converter) triples.  A null stays None where that is the
    field's default.  Each refusal is a ValueError naming its key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {key for key, _, _ in table}
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}")
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, field, convert in table:
        if key in doc:
            try:
                none = doc[key] is None and defaults[field] is None
                kwargs[field] = None if none else convert(doc[key])
            except (OverflowError, TypeError, ValueError) as exc:  # overflow: a huge integer
                raise ValueError(f"{what} key {key!r}: {exc}") from exc
        elif defaults[field] is MISSING:
            raise ValueError(f"{what} key {key!r} is missing")
    return cls(**kwargs)


_TARGET_TABLE = (("family", "family", _STR), ("depth", "depth", _INT), ("length", "length", _INT))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: tuple[int, ...] = ()
    epsilons: tuple[float, ...] = ()
    delta: float = 0.1
    biases: tuple[float, ...] = ()
    targets: tuple[TargetSpec, ...] = ()
    repetitions: int = 1
    seed: int = 0
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
        empty = [key for key, field, _ in _CONFIG_TABLE if getattr(self, field) == ()]
        if self.experiment != "properties" and empty:  # the grid axes default to ()
            raise ValueError(f"empty grid axes {empty}")
        for n in self.n:
            if not 1 <= n <= MAX_CODE_BITS:
                raise ValueError(f"config key 'n' must lie in 1..{MAX_CODE_BITS}, got {n}")
            for t in self.targets:
                if t.param(n) > n:
                    raise ValueError(f"{t.family} target parameter {t.param(n)} exceeds n={n}")
        points = [_point_label(*point) for point in self.grid()]
        repeated = sorted({p for p in points if points.count(p) > 1})
        if repeated:
            raise ValueError(f"grid points repeat: {repeated}")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        return _from_doc(ExperimentConfig, obj, _CONFIG_TABLE, "config")

    def to_dict(self) -> dict:
        doc = asdict(self)  # targets become objects; the axes become lists below
        return {key: list(doc[f]) if isinstance(doc[f], tuple) else doc[f]
                for key, f, _ in _CONFIG_TABLE}

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


# The config's keys: ``from_dict`` reads these and no other, ``to_dict`` writes all.
_CONFIG_TABLE = (
    ("experiment", "experiment", _STR),
    ("n", "n", _tuple_of(_INT)),
    ("epsilon", "epsilons", _tuple_of(_NUMBER)),
    ("delta", "delta", _NUMBER),
    ("biases", "biases", _tuple_of(_NUMBER)),
    ("targets", "targets", lambda v: tuple(_from_doc(TargetSpec, t, _TARGET_TABLE, "target")
                                           for t in v)),  # a list of objects, never one
    ("repetitions", "repetitions", _INT),
    ("seed", "seed", _INT),
    ("halve_epsilon", "halve_epsilon", _BOOL),
    ("max_splits", "max_splits", _INT),
    ("count", "count", _INT),
)


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
        try:
            row["exact_error"] = tree_error(result.tree, oracle, dist)
        except EnumerationLimitError:
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
        good = [r for r in rows if not str(r["status"]).startswith("error:")]
        base = dict(rows[0])
        agg = {k: base[k] for k in (
            "experiment", "point", "n", "epsilon", "delta", "bias",
            "target_family", "target_param", "target_size", "config_sha",
        )}
        agg.update(row_type="aggregate", rep="", run_seed="", status="", terminated="")
        columns = {
            field: np.array([float(r[field]) for r in good if r[field] != ""], dtype=np.float64)
            for field in ("size", "exact_error", "steps", "label_queries", "random_draws")
        }
        for field, values in columns.items():
            agg[field] = float(np.mean(values)) if len(values) else ""
        sizes, errors = columns["size"], columns["exact_error"]
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
