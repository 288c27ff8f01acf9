"""Self-tests of the benchmark: every workload at a tiny size reports every
metric that BENCHMARK.json names, with its unit, and tracing changes no
output.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys

import pytest

import layers
import run
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "grid-n12": workloads.GridWorkload(n=6, epsilons=(0.3,), biases=(0.5, 0.3), depth=2),
    "practical-n20": workloads.PracticalWorkload(n=6, epsilon=0.2),
    "exact-n21": workloads.ExactWorkload(n=8, depth=3, epsilon=0.05),
}


@pytest.fixture(autouse=True)
def _own_modules():
    """``run.fresh_import`` replaces the greedytree modules; put the
    originals back so later tests keep seeing the classes they imported."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "greedytree"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "greedytree"]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(layers.METRICS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    result = run.measure(name, TINY[name], seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.json").exists()


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    workload = TINY[name]
    m = run.fresh_import()
    state = workload.setup(m, 5, tmp_path)
    plain = workload.outcome(m, state, workload.run(m, state))
    originals = {(layer.owner, layer.attr): vars(layers._resolve(m, layer.owner))[layer.attr]
                 for layer in layers.LAYERS}
    tracer = layers.Tracer()
    with layers.Patched(m, tracer) as patched:
        traced = workload.outcome(m, state, workload.run(m, state))
    assert (traced.digest, traced.counts) == (plain.digest, plain.counts)
    assert patched.restored
    for (owner, attr), original in originals.items():
        assert vars(layers._resolve(m, owner))[attr] is original
    assert tracer.counts and tracer.spans


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["a", 12.0, 13.0, -1]]
    assert tracer.self_seconds() == {"a": 8.0, "b": 2.0, "c": 1.0}
    assert tracer.covered_seconds() == 11.0


def test_record_drift_is_reported(tmp_path):
    path = tmp_path / "record.json"
    assert run.check_record(path, {"digest": "x", "counts": {"q": 1}}) == []
    assert run.check_record(path, {"digest": "x", "counts": {"q": 1}, "layer_counts": {}}) == []
    assert run.check_record(path, {"digest": "y", "counts": {"q": 1}}) == ["digest"]


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "exact-n21", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
