"""Summarize the run records in ``.bench_out/`` into one JSON document.

    python3 perfbench/summarize.py --out perfbench/baseline.json

Only records of the current sources count.  For every workload and metric
it gives the median, the quartiles (``statistics.quantiles(n=4)``), their
distance as a share of the median, and every value, next to the seeds,
digests, ``nproc`` and the Python and numpy versions the runs reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import OUT_DIR, ROOT, code_sha


def stats(values: list[float], unit: str, better: str | None = None) -> dict:
    out = {"unit": unit, "median": statistics.median(values), "values": values}
    if better:
        out["better"] = better
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha = code_sha()
    records = [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob(f"record-*-{sha}.json"))]
    out = {"code_sha": sha, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"untraced": [], "trace": []}
        for record in records:
            for mode, found in runs.items():
                if mode in record and record[mode]["detail"]["workload"] == workload:
                    found.append(record[mode])
        if not runs["untraced"]:
            continue
        details = [r["detail"] for r in runs["untraced"]]
        out.update({k: details[0][k] for k in ("nproc", "python", "numpy")})
        entry = {
            "seeds": [d["seed"] for d in details],
            "digests": {str(d["seed"]): d["digest"] for d in details},
            "all_correct": all(r["result"]["correct"] for mode in runs.values() for r in mode),
            "attempted": sum(r["result"]["attempted"] for r in runs["untraced"]),
            "failed": sum(r["result"]["failed"] for r in runs["untraced"]),
        }
        for section, mode in (("end_to_end", "untraced"), ("per_layer", "trace")):
            entry[section] = {
                m["name"]: stats([r["result"]["metrics"][m["name"]]["value"] for r in runs[mode]],
                                 m["unit"], m["better"])
                for m in spec[section] if runs[mode]
            }
        entry["reported"] = {
            key: stats([d[key] for d in details], unit)
            for key, unit in (("tree_size_mean", "leaves"), ("error_over_eps_max", "ratio"),
                              ("random_draws", "count"))
            if all(d[key] is not None for d in details)
        }
        out["workloads"][workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write here instead of standard output")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
