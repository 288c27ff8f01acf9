"""Golden outputs: sha256 digests of CLI outputs for fixed seeds.

A refactor or optimization that keeps these digests keeps the experiment
CSV, the builders' step traces, the returned trees and the practical
builder's cumulative query counts byte for byte.  A change that means to
alter any of them must say so and re-pin the digest.

Sampling counts are pinned apart from everything else: the experiment
CSV's ``label_queries`` and ``random_draws`` columns and the practical
builds' usage CSVs have digests of their own.  A change that draws or
labels fewer points re-pins only those, and the other digests show that
trees, traces and every other column held still.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from greedytree.cli import main
from greedytree.core import ProductDistribution, serialize_distribution, serialize_tree
from greedytree.greedy import build_topdown_exact
from greedytree.targets import (
    generate_balanced_target,
    generate_path_target,
    generate_random_tree,
)

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
GRID_CSV_SHA = "8d239a720b1c4adf2f602ff84330337f45884f22f757e283ea96d6513aafeffc"
GRID_LABEL_QUERIES_SHA = "fe21af6f97057ec413820f8ea71635969a9156ed7db6508a66ba1738c9982f53"
GRID_RANDOM_DRAWS_SHA = "706eec5de03932e92eade51422d57716a0e3ecfde9566ffd1a5a1bb3ceaa3f19"

BUILD_BIASES = [0.5, 0.3, 0.1, 0.7, 0.5, 0.2, 0.6, 0.4]
# tree.json then trace.csv; a practical build's usage.csv is in USAGE_SHA
BUILD_SHA = {
    ("practical", 4): "4c6976f8285803713cc160cd7ca4831ed07e156759d32b45c188943481651464",
    ("practical", 5): "a92c756eafbbbc989638e36ad0f9b83e5de84869ea9c771e7cea41d3318e2a49",
    ("exact", 4): "365974f412a73558dd71398c2b1794d359ae289921b5e590137fb7f85069de56",
    ("exact", 5): "24c2fa3494ba572d824a375b65bb904f9f323ac2a04c4bb318dd0e756057ac0f",
}
USAGE_SHA = {
    4: "e7a8cbbca816ffd0db8e15bb056d996e1768b914973a8c364d21a02f55057e2b",
    5: "ee771f8a4e7ed7f3d6ec701ba558365b4c600bdb237c53c31c0ef038674be40a",
}


def _sha(*paths: Path) -> str:
    return _sha_bytes(*(path.read_bytes() for path in paths))


def _sha_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _split_columns(path: Path, *names: str) -> tuple[bytes, ...]:
    """The CSV without the columns ``names``, then each of those columns
    alone, a cell a line.  A '#' comment line stays with the rest."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comment = [line for line in lines[:1] if line.startswith("#")]
    rows = [line.split(",") for line in lines[len(comment):]]
    ks = [rows[0].index(name) for name in names]
    assert all(len(row) == len(rows[0]) for row in rows)
    rest = comment + [",".join(c for k, c in enumerate(row) if k not in ks) for row in rows]
    texts = ["\n".join(rest)] + ["\n".join(row[k] for row in rows) for k in ks]
    return tuple((text + "\n").encode() for text in texts)


def test_run_csv_digest(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GRID_CONFIG))
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rest, label_queries, random_draws = _split_columns(out, "label_queries", "random_draws")
    assert _sha_bytes(rest) == GRID_CSV_SHA
    assert _sha_bytes(label_queries) == GRID_LABEL_QUERIES_SHA
    assert _sha_bytes(random_draws) == GRID_RANDOM_DRAWS_SHA


@pytest.mark.parametrize("mode,seed", sorted(BUILD_SHA))
def test_build_trace_digest(tmp_path, mode, seed):
    target = generate_random_tree(len(BUILD_BIASES), 6, np.random.default_rng(seed))
    (tmp_path / "target.json").write_text(serialize_tree(target))
    (tmp_path / "dist.json").write_text(serialize_distribution(ProductDistribution(BUILD_BIASES)))
    outputs = [tmp_path / "tree.json", tmp_path / "trace.csv"]
    usage = tmp_path / "usage.csv"
    argv = [
        "build", "--target", str(tmp_path / "target.json"), "--dist", str(tmp_path / "dist.json"),
        "--epsilon", "0.02" if mode == "exact" else "0.1", "--mode", mode, "--seed", str(seed),
        "--out", str(outputs[0]), "--trace-out", str(outputs[1]),
    ]
    if mode == "practical":
        argv += ["--usage-out", str(usage)]
    assert main(argv) == 0
    assert _sha(*outputs) == BUILD_SHA[(mode, seed)]
    if mode == "practical":
        assert _sha(usage) == USAGE_SHA[seed]


PROPS_CSV_SHA = "faecdaabd86b5a488c2a0ca39ffa5f545388b8cf9b088b9e136afe341b677e2e"


def test_props_csv_digest(tmp_path):
    out = tmp_path / "props.csv"
    assert main(["props", "--seed", "0", "--count", "60", "--out", str(out)]) == 0
    assert _sha(out) == PROPS_CSV_SHA


def _exact_corpus():
    """42 seeded exact builds: n = 4..21, balanced (depth 3..6) and path
    targets, biases 0.5, 0.3 and 0.1, so both scoring paths run."""
    for k in range(42):
        n = 4 + k % 18
        rng = np.random.default_rng(2800 + k)
        if k % 2:
            target = generate_path_target(n, rng)
        else:
            target = generate_balanced_target(min(3 + k % 4, n), n, rng)
        dist = ProductDistribution([(0.5, 0.3, 0.1)[k % 3]] * n)
        yield build_topdown_exact(target, dist, epsilon=0.01)


EXACT_CORPUS_SHA = "e9898814ee1c5f69d58b12e61d87035af2ed23a91f06193053f6639b15cff90c"


def test_exact_corpus_digest():
    """Every tree, step and float of these builds, byte for byte."""
    reprs = "\n".join(repr(result) for result in _exact_corpus())
    assert _sha_bytes(reprs.encode()) == EXACT_CORPUS_SHA


N64_SHA = "49279b016d44eccdba049d5a9231aeb98bba3d5c03993c369bc751bbed416839"


def test_exact_n64_digest(monkeypatch):
    """One leaf-pair build at n = 64, past the corpus's n = 21: a depth-8
    balanced target at biases drawn from [0.05, 0.5), 851 splits.  The
    enumeration cap, which ``leaf_info`` applies on both paths, is raised
    for this build only: leaf pairs enumerate no point."""
    monkeypatch.setattr("greedytree.exact.MAX_FREE_COORDS", 64)
    rng = np.random.default_rng(2)
    target = generate_balanced_target(8, 64, rng)
    dist = ProductDistribution(rng.uniform(0.05, 0.5, 64))
    result = build_topdown_exact(target, dist, epsilon=0.01)
    assert result.splits == 851
    assert _sha_bytes(repr(result).encode()) == N64_SHA
