"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greedytree
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
GRID = {"experiment": "single-run", "n": 3, "epsilon": 0.2, "biases": [0.5],
        "targets": [{"family": "path"}]}


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


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


class TestEnumerationLimit:
    """Past the exact engine's enumeration cap both exact commands refuse
    with one error line, not a traceback; a practical build or grid run
    leaves its exact error out."""

    @pytest.fixture
    def wide(self, workdir: Path) -> Path:
        (workdir / "wide.json").write_text(serialize_distribution(ProductDistribution([0.5] * 26)))
        return workdir

    def _assert_refused(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "free coordinates" in err

    def test_verify_refuses(self, wide, capsys):
        code = main([
            "verify", "--tree", str(wide / "target.json"),
            "--target", str(wide / "target.json"), "--dist", str(wide / "wide.json"),
        ])
        assert code == 1
        self._assert_refused(capsys)

    def test_exact_build_refuses(self, wide, capsys):
        out = wide / "result.json"
        code = main([
            "build", "--target", str(wide / "target.json"), "--dist", str(wide / "wide.json"),
            "--epsilon", "0.1", "--mode", "exact", "--out", str(out),
        ])
        assert code == 1
        self._assert_refused(capsys)
        assert not out.exists()

    def test_practical_build_omits_exact_error(self, wide, capsys):
        code = main([
            "build", "--target", str(wide / "target.json"), "--dist", str(wide / "wide.json"),
            "--epsilon", "0.1", "--mode", "practical",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("build[practical]: ") and "exact_error" not in out

    def test_grid_run_leaves_exact_error_blank(self):
        config = ExperimentConfig.from_dict({
            "experiment": "single-run", "n": 25, "epsilon": 0.1, "biases": [0.5],
            "targets": [{"family": "path"}], "seed": 3, "max_splits": 2,
        })
        rows, aggregates, _ = run_experiment(config)
        assert len(rows) == 1 and rows[0]["exact_error"] == ""
        assert not str(rows[0]["status"]).startswith("error:")
        assert aggregates[0]["size"] == rows[0]["size"] and aggregates[0]["exact_error"] == ""


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

    def test_config_round_trips_and_properties_need_no_grid(self, workdir):
        config = ExperimentConfig.from_dict(json.loads(self._config(workdir).read_text()))
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        # to_dict writes the key a family does not read as null, which is read back
        both = ExperimentConfig.from_dict({**config.to_dict(), "targets": [
            {"family": "balanced", "depth": 2}, {"family": "path"}]})
        assert both.to_dict()["targets"][0]["length"] is None
        assert ExperimentConfig.from_dict(both.to_dict()) == both
        props = ExperimentConfig.from_dict({"experiment": "properties", "count": 2})
        assert ExperimentConfig.from_dict(props.to_dict()) == props

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

    def test_aggregates_every_status_but_errors(self):
        def row(rep, status, size):
            return {
                "point": "p", "experiment": "single-run", "n": 3, "epsilon": 0.2, "delta": 0.1,
                "bias": 0.5, "target_family": "path", "target_param": 3, "target_size": 4,
                "config_sha": "", "rep": rep, "status": status, "size": size,
                "exact_error": 0.0, "steps": 1, "label_queries": 1, "random_draws": 1,
            }

        rows = [row(0, "budget", 3), row(1, "ok", 5), row(2, "error:ValueError", "")]
        (agg,) = aggregate_rows(rows)
        assert (agg["size"], agg["size_std"], agg["runs"]) == (4.0, float(np.sqrt(2.0)), 3)

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

    def test_usage_out_refused_in_exact_mode(self, workdir, capsys):
        usage, out = workdir / "usage.csv", workdir / "result.json"
        assert main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.2", "--mode", "exact", "--usage-out", str(usage), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--usage-out" in err
        assert not usage.exists() and not out.exists()

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

    def test_malformed_count_is_named(self, capsys):
        assert main(["props", "--count", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: greedytree props")
        assert "greedytree props: error:" in err and "--count" in err

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

    @pytest.mark.parametrize("change,name", [
        ({"epsilons": [0.1, 0.2]}, "epsilons"),
        ({"targets": [{"family": "path", "lenght": 3}]}, "lenght"),
    ])
    def test_unknown_config_key_is_named(self, tmp_path, capsys, change, name):
        # a misspelled key used to be ignored: a 0-run CSV, or a target of
        # the default length
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps({
            "experiment": "single-run", "n": 3, "epsilon": 0.2, "biases": [0.5],
            "targets": [{"family": "path"}], **change,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert repr(name) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["n", "epsilon", "biases", "targets"])
    def test_empty_grid_axis_refused(self, tmp_path, capsys, axis):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps({
            "experiment": "single-run", "n": 3, "epsilon": 0.2, "biases": [0.5],
            "targets": [{"family": "path"}], axis: [],
        }))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert repr(axis) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc,named", [
        ({k: v for k, v in GRID.items() if k != "experiment"}, "'experiment' is missing"),
        ([GRID], "config must be a JSON object"),
        ({**GRID, "n": [None]}, "'n'"),
        ({**GRID, "targets": [{"length": 3}]}, "'family' is missing"),
        ({**GRID, "targets": ["path"]}, "target must be a JSON object"),
        ({**GRID, "delta": None}, "'delta'"),
        # a repeated grid point used to run twice, with different run seeds
        ({**GRID, "epsilon": [0.3, 0.3]}, "n3-eps0.3-p0.5-path3"),
        ({**GRID, "targets": [{"family": "path"}, {"family": "path", "length": 3}]},
         "n3-eps0.2-p0.5-path3"),
        # each field takes its own JSON type only: these used to be accepted
        # as true, n = 1, seed 1, truncated or parsed from strings
        ({**GRID, "halve_epsilon": "false"}, "'halve_epsilon'"),
        ({**GRID, "n": [True]}, "'n'"),
        ({**GRID, "seed": True}, "'seed'"),
        ({**GRID, "repetitions": 2.7}, "'repetitions'"),
        ({**GRID, "max_splits": 3.5}, "'max_splits'"),
        ({**GRID, "epsilon": ["0.3"]}, "'epsilon'"),
        ({**GRID, "delta": "0.1"}, "'delta'"),
        ({"experiment": "properties", "count": "3"}, "'count'"),
        ({**GRID, "targets": [{"family": "path", "length": True}]}, "'length'"),
        ({**GRID, "delta": 10**400}, "'delta'"),
        # grids no run can use: these used to fail only when run, or to run
        # as error rows, or to drop the key silently
        ({**GRID, "n": [0]}, "'n'"),
        ({**GRID, "n": [70]}, "'n'"),
        ({**GRID, "targets": [{"family": "balanced", "depth": -1}]}, "'depth'"),
        ({**GRID, "targets": [{"family": "path", "length": 0}]}, "'length'"),
        ({**GRID, "targets": [{"family": "path", "length": -2}]}, "'length'"),
        ({**GRID, "targets": [{"family": "path", "depth": 3}]}, "'depth'"),
        ({**GRID, "targets": [{"family": "balanced", "depth": 2, "length": 3}]}, "'length'"),
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, doc, named):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert named in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("target,dist", [
        (None, '{"biases": [null]}'),
        (None, '{"biases": [[0.5]]}'),
        ('{"leaf": true}', None),
        ('{"leaf": 1.0}', None),
        (None, '{"biases": [0.5, "0.25"]}'),
    ])
    def test_malformed_build_input_is_one_error_line(self, workdir, capsys, target, dist):
        if target is not None:
            (workdir / "target.json").write_text(target)
        if dist is not None:
            (workdir / "dist.json").write_text(dist)
        assert main([
            "build", "--target", str(workdir / "target.json"), "--dist", str(workdir / "dist.json"),
            "--epsilon", "0.2",
        ]) == 1
        _one_error_line(capsys)

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


def test_module_entry_point_runs_the_cli():
    # ``python -m greedytree`` runs the same parser as the console script
    src = str(Path(greedytree.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "greedytree", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: greedytree")
