"""Print every end-to-end metric of every workload, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own fresh interpreter, one after the other.
``--trace`` adds a traced run per workload and prints its per-layer metrics
and whether the predicted dominant layers carried most of the time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, check=True)
    details_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(details_line)["details"], json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    row = "{:<16} {:<34} {:>16} {}"
    print(row.format("workload", "metric", "value", "unit"))
    for workload in workloads.WORKLOADS:
        details, result = run_once(workload, args.seed, args.seconds, 0)
        tail = details["latency_tail"]
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        metrics["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
        metrics["latency_tail_percentile"] = (tail["percentile"], "%")
        metrics["latency_tail_samples"] = (tail["samples"], "count")
        for name, (value, unit) in metrics.items():
            print(row.format(workload, name, f"{value:.6g}", unit))
        for failure in details["failures"]:
            print(f"  failed: {failure}")
        if args.trace:
            details, result = run_once(workload, args.seed, args.seconds, 1)
            for name, m in result["metrics"].items():
                print(row.format(workload, name, f"{m['value']:.6g}", m["unit"]))
            dominant = details["dominant"]
            print(f"  dominant {'+'.join(dominant['predicted'])}: share {dominant['share']:.3f} "
                  f"vs {dominant['other_share']:.3f} for the rest, "
                  f"{'confirmed' if dominant['confirmed'] else 'NOT confirmed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
