"""Run one workload of the sublex benchmark and print its metrics.

    python3 perfbench/run.py --workload isolated --seed 0 --seconds 15 \\
        --trace 0

Run from the root of a sublex checkout; the sources are imported from
``src/``.  Inputs are generated from ``--seed`` under ``.bench_work/``,
results and a run manifest are written under ``.bench_results/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--seconds`` is the decode window, which starts when training ends.
Exit codes: 0 when the correctness gate passed, 1 when it failed, 2 when
nothing could be measured (no sublex sources under the working
directory, or no corpus of the workload trained).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# one BLAS thread, set before numpy is imported; recorded in the manifest
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    try:
        harness.use_sources(root)
        record = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), root)
    except harness.HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tag = harness.write_results(record, args.workload, args.seed,
                                args.seconds, bool(args.trace), root)
    print(harness.render(record, bool(args.trace)))
    print(f"# results: {os.path.relpath(tag, root)}.json")
    print(json.dumps(record["line"]))
    return 0 if record["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
