"""Summarise benchmark results: per workload and metric, the median,
quartiles and spread over the runs found under ``.bench_results/``.

    python3 perfbench/summarize.py > summary.json

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  Untraced runs give the
end-to-end metrics, traced runs the per-layer metrics.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys

RESULT = re.compile(
    r"(?P<workload>[^/]+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json\Z")


def summarize(results_dir: str) -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        match = RESULT.match(os.path.basename(path))
        if not match:
            continue
        with open(path, encoding="utf-8") as fh:
            line = json.load(fh)["line"]
        key = "per_layer" if match["trace"] == "1" else "end_to_end"
        entry = runs.setdefault(match["workload"], {}).setdefault(
            key, {"seeds": [], "failed": [], "attempted": [], "values": {}})
        entry["seeds"].append(int(match["seed"]))
        entry["failed"].append(line["failed"])
        entry["attempted"].append(line["attempted"])
        for name, metric in line["metrics"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    for workload in runs.values():
        for entry in workload.values():
            entry["metrics"] = {
                name: _stats(values)
                for name, values in entry.pop("values").items()}
    return runs


def _stats(values) -> dict:
    median = statistics.median(values)
    out = {"median": median, "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / median if median else None)
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1] if len(sys.argv) > 1
                        else ".bench_results"), sys.stdout, indent=1)
    print()
