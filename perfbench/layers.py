"""Per-layer tracing from outside the program.

The traced run wraps public functions of the ``greedytree`` modules at the
names their callers look up, records one span per call (name, start, end,
parent) plus work counts, and restores every wrapped attribute afterwards.
No file of the program changes.  Names are ``<module>.<function>``: the
module that defines the function, whichever module's reference is wrapped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

COUNT_SPAN = "trace.count"


def _free_points(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    view = args[0] if args else kwargs["view"]
    return {"points": 1 << len(view.free_coords())}


def _pair_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    disagree = int(np.count_nonzero(result.x_labels != result.alt_labels))
    return {"pairs": len(result), "disagree": disagree}


def _codes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"codes": len(result)}


def _practical(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"steps": len(result.steps), "random_draws": result.random_draws}


@dataclass(frozen=True)
class Layer:
    """One wrapped attribute: ``owner.attr`` traced under span ``name``."""

    name: str
    owner: str  # "<module>" or "<module>.<Class>" inside the greedytree package
    attr: str
    counts: Callable[[tuple, dict, Any], dict[str, int]] | None = None


# Wrapped where the caller looks the name up: ``sampling.route_codes`` is
# bare-tree routing only, because oracle labeling calls ``core.route_codes``.
LAYERS = (
    Layer("core.draw_codes", "core.ProductDistribution", "draw_codes", _codes),
    Layer("core.label_codes", "core.TreeOracle", "label_codes", _codes),
    Layer("sampling.route_codes", "sampling", "route_codes", _codes),
    Layer("sampling.draw_pair_batch", "sampling", "draw_pair_batch", _pair_counts),
    Layer("sampling.build", "sampling", "build_topdown_practical", _practical),
    Layer("sampling.build", "experiments", "build_topdown_practical", _practical),
    Layer("core.split_leaf", "sampling", "split_leaf"),
    Layer("core.split_leaf", "greedy", "split_leaf"),
    Layer("greedy.build", "greedy", "build_topdown_exact", lambda a, k, r: {"splits": r.splits}),
    Layer("exact.subfunction_summary", "greedy", "subfunction_summary", _free_points),
    Layer("exact.subfunction_summary", "exact", "subfunction_summary", _free_points),
    Layer("exact.positive_mass", "exact", "positive_mass", _free_points),
    Layer("exact.f_completion", "greedy", "f_completion"),
    Layer("exact.tree_error", "experiments", "tree_error"),
    Layer("exact.tree_error", "exact", "tree_error"),
    Layer("exact.route_codes", "exact", "route_codes", _codes),
    Layer("experiments.run_experiment", "experiments", "run_experiment"),
    Layer("experiments.write_results_csv", "experiments", "write_results_csv"),
)


@dataclass
class Tracer:
    """Spans kept in memory as [name, start, end, parent index] lists."""

    spans: list[list] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, clock(), 0.0, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            # Counting is traced as its own span so no layer's self time pays for it.
            start = clock()
            tally = self.counts.setdefault(name, {})
            tally["calls"] = tally.get("calls", 0) + 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tally[key] = tally.get(key, 0) + value
            spans.append([COUNT_SPAN, start, clock(), parent])
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        """Span time minus the time of direct child spans, summed per name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
        return out

    def covered_seconds(self) -> float:
        """Time covered by top-level spans; spans of one thread never overlap."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _resolve(modules, owner: str):
    obj = modules
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Patched:
    """Context manager that installs the wrappers of ``LAYERS`` on the
    imported ``modules`` namespace and restores the originals on exit.

    ``restored`` is set on exit to whether every attribute holds its
    original object again.
    """

    def __init__(self, modules, tracer: Tracer):
        self.modules = modules
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.restored = False

    def __enter__(self) -> "Patched":
        for layer in LAYERS:  # resolve every target before changing any
            owner = _resolve(self.modules, layer.owner)
            self.saved.append((owner, layer.attr, vars(owner)[layer.attr]))
        for layer, (owner, attr, original) in zip(LAYERS, self.saved):
            setattr(owner, attr, self.tracer.wrap(layer.name, original, layer.counts))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.restored = all(vars(owner)[attr] is original for owner, attr, original in self.saved)


# (metric, unit, better) of the traced run, in BENCHMARK.json's order.
METRICS = (
    ("core.draw_codes.calls", "count", "lower"),
    ("core.draw_codes.codes", "count", "lower"),
    ("core.draw_codes.self_s", "s", "lower"),
    ("core.label_codes.calls", "count", "lower"),
    ("core.label_codes.codes", "count", "lower"),
    ("core.label_codes.self_s", "s", "lower"),
    ("sampling.route_codes.calls", "count", "lower"),
    ("sampling.route_codes.codes", "count", "lower"),
    ("sampling.route_codes.self_s", "s", "lower"),
    ("sampling.draw_pair_batch.pairs", "count", "lower"),
    ("sampling.draw_pair_batch.self_s", "s", "lower"),
    ("sampling.pairs_disagree_share", "ratio", "higher"),
    ("sampling.build.steps", "count", "lower"),
    ("sampling.build.random_draws", "count", "lower"),
    ("sampling.build.self_s", "s", "lower"),
    ("core.split_leaf.calls", "count", "lower"),
    ("core.split_leaf.self_s", "s", "lower"),
    ("greedy.build.splits", "count", "lower"),
    ("greedy.build.self_s", "s", "lower"),
    ("exact.subfunction_summary.calls", "count", "lower"),
    ("exact.subfunction_summary.points", "count", "lower"),
    ("exact.subfunction_summary.self_s", "s", "lower"),
    ("exact.positive_mass.calls", "count", "lower"),
    ("exact.positive_mass.points", "count", "lower"),
    ("exact.positive_mass.self_s", "s", "lower"),
    ("exact.f_completion.self_s", "s", "lower"),
    ("exact.tree_error.calls", "count", "lower"),
    ("exact.tree_error.self_s", "s", "lower"),
    ("exact.route_codes.codes", "count", "lower"),
    ("exact.route_codes.self_s", "s", "lower"),
    ("experiments.run_experiment.self_s", "s", "lower"),
    ("experiments.write_results_csv.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple]:
    """Per-layer values of one traced repetition; a layer that never ran reads 0.

    ``trace.overhead_s`` is the traced wall time minus the untraced median;
    ``trace.uncovered_share`` the share of the traced wall time no span covers.
    """
    self_s = tracer.self_seconds()
    pairs = tracer.counts.get("sampling.draw_pair_batch", {})
    derived = {
        "sampling.pairs_disagree_share": pairs.get("disagree", 0) / pairs["pairs"] if pairs else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.uncovered_share": 1.0 - tracer.covered_seconds() / traced_wall,
    }
    out = {}
    for metric, unit, _ in METRICS:
        if metric in derived:
            value = derived[metric]
        else:
            layer, stat = metric.rsplit(".", 1)
            value = self_s.get(layer, 0.0) if stat == "self_s" else tracer.counts.get(layer, {}).get(stat, 0)
        out[metric] = (value, unit)
    return out
