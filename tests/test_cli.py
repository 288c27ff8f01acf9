"""Command-line interface: subcommands, exit codes, file outputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from greedytree.cli import main
from greedytree.core import (
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    parse_tree,
    serialize_distribution,
    serialize_tree,
)
from greedytree.experiments import (
    ExperimentConfig,
    aggregate_rows,
    run_experiment,
)
from greedytree.verify import CheckReport

DICTATOR = DecisionTree(Internal(0, Leaf(-1), Leaf(1)))


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "target.json").write_text(serialize_tree(DICTATOR))
    (tmp_path / "dist.json").write_text(serialize_distribution(ProductDistribution([0.5, 0.5])))
    return tmp_path


class TestBuild:
    def test_exact_mode_writes_tree_and_trace(self, workdir, capsys):
        out = workdir / "result.json"
        trace = workdir / "trace.csv"
        code = main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.1", "--mode", "exact", "--out", str(out), "--trace-out", str(trace),
        ])
        assert code == 0
        assert parse_tree(out.read_text()) == DICTATOR
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("step,leaf_count,leaf_id,coord,score")
        assert len(lines) == 2
        assert "exact_error=0.0" in capsys.readouterr().out

    def test_exact_trace_without_steps_keeps_its_header(self, workdir):
        (workdir / "const.json").write_text('{"leaf": 1}')
        trace = workdir / "trace.csv"
        code = main([
            "build", "--target", str(workdir / "const.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.1", "--mode", "exact", "--trace-out", str(trace),
        ])
        assert code == 0
        assert trace.read_text() == (
            "step,leaf_count,leaf_id,coord,score,cost_before,cost_after,completion_error\n"
        )

    def test_practical_mode_writes_usage_schema(self, workdir):
        usage = workdir / "usage.csv"
        code = main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.2", "--delta", "0.1", "--seed", "5", "--out", str(workdir / "t.json"),
            "--usage-out", str(usage),
        ])
        assert code == 0
        header = usage.read_text().splitlines()[0]
        assert header == "step,leaves,M_S,M_LL,M_EE,cumulative_label_queries,cumulative_random_draws"

    def test_halve_epsilon_flag(self, workdir, capsys):
        code = main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.3", "--mode", "exact", "--halve-epsilon",
        ])
        assert code == 0
        assert "epsilon=0.15" in capsys.readouterr().out

    def test_bare_target_rejected(self, workdir):
        (workdir / "bare.json").write_text('{"leaf": null, "id": 0}')
        code = main([
            "build", "--target", str(workdir / "bare.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.1",
        ])
        assert code == 1


class TestVerify:
    def test_exact_error_printed(self, workdir, capsys):
        (workdir / "hyp.json").write_text('{"leaf": 1}')
        code = main([
            "verify", "--tree", str(workdir / "hyp.json"),
            "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
        ])
        assert code == 0
        assert "exact_error=0.5" in capsys.readouterr().out


class TestProps:
    def test_small_suite_passes(self, workdir, capsys):
        report = workdir / "props.csv"
        code = main(["props", "--seed", "3", "--count", "4", "--out", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("# greedytree-props-v1")
        assert lines[1] == "check,seed,passed,witness,detail"
        assert all(",true," in line for line in lines[2:])

    def test_report_deterministic(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        main(["props", "--seed", "3", "--count", "4", "--out", str(a)])
        main(["props", "--seed", "3", "--count", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_violation_exit_code_and_witness(self, workdir, monkeypatch):
        failing = CheckReport(
            check="error_cost_bound", seed=9, passed=False, detail="forced failure",
            witness={"target.json": '{"leaf": 1}', "dist.json": '{"biases": [0.5]}'},
        )
        monkeypatch.setattr("greedytree.cli.run_property_suite", lambda *a, **k: [failing])
        wdir = workdir / "witnesses"
        code = main([
            "props", "--seed", "0", "--count", "1",
            "--out", str(workdir / "r.csv"), "--witness-dir", str(wdir),
        ])
        assert code == 2
        assert (wdir / "error_cost_bound-9-target.json").read_text() == '{"leaf": 1}'


class TestRun:
    def _config(self, path: Path, seed: int = 12) -> Path:
        cfg = {
            "experiment": "single-run",
            "n": 3,
            "epsilon": 0.2,
            "delta": 0.1,
            "biases": [0.5],
            "targets": [{"family": "path"}],
            "repetitions": 2,
            "seed": seed,
            "max_splits": 64,
        }
        p = path / "config.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_writes_results_and_timing(self, workdir, capsys):
        cfg = self._config(workdir)
        out = workdir / "results.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert (workdir / "results.timing.csv").exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# greedytree-experiment-v1 config_sha256=")
        assert lines[1].split(",")[0] == "row_type"

    def test_byte_identical_reruns(self, workdir):
        cfg = self._config(workdir)
        a, b = workdir / "a.csv", workdir / "b.csv"
        main(["run", "--config", str(cfg), "--out", str(a)])
        main(["run", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_aggregates_recompute_exactly(self, workdir):
        cfg_path = self._config(workdir)
        out = workdir / "results.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        parsed = [dict(zip(header, line.split(","))) for line in lines[1:]]
        runs = [r for r in parsed if r["row_type"] == "run"]
        aggs = [r for r in parsed if r["row_type"] == "aggregate"]
        # round-trip the run rows through the aggregator and compare cells
        for r in runs:
            for k in ("size", "exact_error", "steps", "label_queries", "random_draws"):
                r[k] = float(r[k]) if r[k] != "" else ""
            r["epsilon"] = float(r["epsilon"])
        recomputed = aggregate_rows(runs)
        for want, got in zip(aggs, recomputed):
            for field in ("size", "exact_error", "size_std", "errors_within_eps", "runs"):
                assert want[field] == (repr(got[field]) if isinstance(got[field], float) else str(got[field]))

    def test_parallel_matches_serial(self, workdir):
        config = ExperimentConfig.from_dict(json.loads(self._config(workdir).read_text()))
        serial_rows, serial_aggs, _ = run_experiment(config, jobs=1)
        parallel_rows, parallel_aggs, _ = run_experiment(config, jobs=2)
        assert serial_rows == parallel_rows
        assert serial_aggs == parallel_aggs


class TestUsageErrors:
    def test_missing_subcommand_args(self):
        assert main(["build", "--epsilon", "0.1"]) == 1

    @pytest.mark.parametrize("mode", ["exact", "practical"])
    def test_negative_max_splits(self, workdir, mode, capsys):
        assert main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.2", "--mode", mode, "--max-splits", "-1",
        ]) == 1
        assert "max_splits" in capsys.readouterr().err

    def test_negative_max_splits_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "single-run", "n": 3, "epsilon": 0.2, "biases": [0.5],
            "targets": [{"family": "path"}], "max_splits": -1,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, tmp_path, jobs, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps({
            "experiment": "single-run", "n": 3, "epsilon": 0.2, "biases": [0.5],
            "targets": [{"family": "path"}],
        }))
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count(self, capsys):
        assert main(["props", "--count", "-3"]) == 1
        captured = capsys.readouterr()
        assert "--count" in captured.err and captured.out == ""

    def test_zero_count_runs_nothing(self, capsys):
        assert main(["props", "--count", "0"]) == 0
        assert "0 checks on 0 instances" in capsys.readouterr().out

    def test_negative_count_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "properties", "count": -3}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert "count" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        with pytest.raises(ValueError, match="count"):
            ExperimentConfig.from_dict({"experiment": "properties", "count": -1})

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"experiment": "nope"}')
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1

    def test_missing_file(self, tmp_path):
        assert main([
            "verify", "--tree", str(tmp_path / "absent.json"),
            "--target", str(tmp_path / "absent.json"), "--dist", str(tmp_path / "absent.json"),
        ]) == 1
