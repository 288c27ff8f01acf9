"""Golden outputs: sha256 digests of CLI outputs for fixed seeds.

A refactor or optimization that keeps these digests keeps the experiment
CSV, the builders' step traces, the returned trees and the practical
builder's cumulative query counts byte for byte.  A change that means to
alter any of them must say so and re-pin the digest.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from greedytree.cli import main
from greedytree.core import ProductDistribution, serialize_distribution, serialize_tree
from greedytree.targets import generate_random_tree

GRID_CONFIG = {
    "experiment": "size-vs-epsilon",
    "n": 8,
    "epsilon": [0.1, 0.2],
    "delta": 0.1,
    "biases": [0.5, 0.3, 0.1],
    "targets": [{"family": "balanced", "depth": 3}, {"family": "path"}],
    "repetitions": 2,
    "seed": 7,
    "max_splits": 64,
}
GRID_CSV_SHA = "ac19bd9ceb17308af05dbffd3e42a454f967c4f023b19e081887f49fe74a314d"

BUILD_BIASES = [0.5, 0.3, 0.1, 0.7, 0.5, 0.2, 0.6, 0.4]
BUILD_SHA = {
    ("practical", 4): "44f287c245b867fa7bdec3127695a897867d947e83ab2f08f8ad7ad5793522f5",
    ("practical", 5): "d7ddec6a29f398c8bc0dc35f162ed37abe592e52f1672e6deb5503ec36b4a9ac",
    ("exact", 4): "88872a3cdbdaa014b1627b08a057207d3772a367a4c541157c727c43350c558c",
    ("exact", 5): "24c2fa3494ba572d824a375b65bb904f9f323ac2a04c4bb318dd0e756057ac0f",
}


def _sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def test_run_csv_digest(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GRID_CONFIG))
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert _sha(out) == GRID_CSV_SHA


@pytest.mark.parametrize("mode,seed", sorted(BUILD_SHA))
def test_build_trace_digest(tmp_path, mode, seed):
    target = generate_random_tree(len(BUILD_BIASES), 6, np.random.default_rng(seed))
    (tmp_path / "target.json").write_text(serialize_tree(target))
    (tmp_path / "dist.json").write_text(serialize_distribution(ProductDistribution(BUILD_BIASES)))
    outputs = [tmp_path / "tree.json", tmp_path / "trace.csv"]
    argv = [
        "build", "--target", str(tmp_path / "target.json"), "--dist", str(tmp_path / "dist.json"),
        "--epsilon", "0.02" if mode == "exact" else "0.1", "--mode", mode, "--seed", str(seed),
        "--out", str(outputs[0]), "--trace-out", str(outputs[1]),
    ]
    if mode == "practical":
        outputs.append(tmp_path / "usage.csv")
        argv += ["--usage-out", str(outputs[2])]
    assert main(argv) == 0
    assert _sha(*outputs) == BUILD_SHA[(mode, seed)]


PROPS_CSV_SHA = "0e2c02b7154003b86488f10f63bb511badce0a0676fe976fc83a329da154ed30"


def test_props_csv_digest(tmp_path):
    out = tmp_path / "props.csv"
    assert main(["props", "--seed", "0", "--count", "60", "--out", str(out)]) == 0
    assert _sha(out) == PROPS_CSV_SHA
