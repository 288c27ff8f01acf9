"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload grid-n12 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, and ``.bench_out/`` there receives the grid CSV, the run records
and the spans.  Set-up (fresh import of the package, config and targets) is
timed several times and the workload repeated until ``--seconds`` have
passed, at least once.

With ``--trace 0`` the last line holds the end-to-end metrics: median wall
time of a repetition, median set-up time, peak RSS after the first
repetition, and label queries (codes the target oracle labeled in one
repetition).  With ``--trace 1`` one more repetition runs with every layer
of ``layers.LAYERS`` wrapped, and the last line holds the per-layer metrics.

Outputs are checked after timing stops.  Every repetition, traced or not,
must reproduce the first one's digest and counts, and so must every earlier
run of the same workload, seed and sources, whose record is kept in
``.bench_out/``.  Every tree's exact error must be at most epsilon.  The
line before the last reports the run: seed, platform, every timing, the
digest, tree sizes, the largest error over epsilon and any problem found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("core", "exact", "greedy", "sampling", "experiments", "targets")
SETUP_REPEATS = 15


def fresh_import() -> SimpleNamespace:
    """Import the ``greedytree`` modules anew, as a fresh process would
    (numpy stays imported)."""
    for name in [k for k in sys.modules if k == "greedytree" or k.startswith("greedytree.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"greedytree.{name}") for name in MODULES
    })


def code_sha() -> str:
    """Digest of the program and benchmark sources; records are kept per digest."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(path: Path, record: dict) -> list[str]:
    """Compare with an earlier run's record of the same workload, seed and
    code, then store the merged record.  Returns the fields that drifted."""
    drift = []
    if path.exists():
        old = json.loads(path.read_text())
        for key in ("digest", "counts", "layer_counts"):
            if key in old and key in record and old[key] != record[key]:
                drift.append(key)
        record = {**old, **record}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return drift


def measure(name: str, workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    out_dir.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's modules are garbage now
        start = time.perf_counter()
        m = fresh_import()
        state = workload.setup(m, seed, out_dir)
        setups.append(time.perf_counter() - start)

    walls, outcomes, first_raw = [], [], None
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        raw = workload.run(m, state)
        walls.append(time.perf_counter() - start)
        if first_raw is None:
            # Later repetitions can only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first_raw = raw
        outcomes.append(workload.outcome(m, state, raw))
        del raw

    tracer = None
    if trace:
        tracer = layers.Tracer()
        with layers.Patched(m, tracer) as patched:
            start = time.perf_counter()
            raw = workload.run(m, state)
            traced_wall = time.perf_counter() - start
        outcomes.append(workload.outcome(m, state, raw))
        del raw
        tracer.write(out_dir / f"spans-{name}-seed{seed}.json")

    # Checks, after timing stops.
    first = outcomes[0]
    problems = []
    failed = sum(o.failed for o in outcomes)
    for k, o in enumerate(outcomes[1:], 1):
        if (o.digest, o.counts) != (first.digest, first.counts):
            problems.append(f"repetition {k} differs from the first")
            failed += o.runs
    ratios = workload.errors_over_eps(m, state, first_raw)
    over = sum(1 for r in ratios if not r <= 1.0)
    if over:
        problems.append(f"{over} run(s) over epsilon")
        failed += over * len(outcomes)
    attempted = sum(o.runs for o in outcomes)
    failed = min(failed, attempted)

    if tracer is not None and not patched.restored:
        problems.append("a wrapped attribute was not restored")
    record = {"digest": first.digest, "counts": first.counts}
    if tracer is not None:
        record["layer_counts"] = tracer.counts
    record_path = out_dir / f"record-{name}-seed{seed}-{code_sha()}.json"
    drift = check_record(record_path, record)
    if drift:
        problems.append(f"{', '.join(drift)} differ from an earlier run of this seed and code")
        failed = attempted

    wall_s = statistics.median(walls)
    sizes = first.counts.get("sizes")
    detail = {
        "workload": name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "repetitions": len(walls), "walls_s": walls, "setups_s": setups,
        "digest": first.digest, "runs": attempted, "runs_failed": failed,
        "random_draws": first.counts.get("random_draws"),
        "tree_size_mean": sum(sizes) / len(sizes) if sizes else None,
        "error_over_eps_max": max(ratios) if ratios else None,
        "problems": problems,
    }
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "label_queries": (first.counts.get("label_queries", 0), "count"),
        }
    else:
        metrics = layers.layer_metrics(tracer, traced_wall, wall_s)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    check_record(record_path, {"trace" if trace else "untraced": {"detail": detail, "result": result}})
    print(json.dumps(detail))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "greedytree" / "__init__.py").is_file():
        print(f"perfbench: no greedytree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
