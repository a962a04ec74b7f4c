"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 kbench/spread.py --workload optimize-sweep --seeds 201-210

Prints one line per run, then per metric the median, the quartile
spread (Q3 - Q1 of ``statistics.quantiles(values, n=4)``) as a share of
the median, and the extremes.  The reference figures in README.md come
from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="201-210", help="FIRST-LAST, inclusive")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    units = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(seed, json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{args.workload} {name}: median {median:.4g} {units[name]}, "
              f"spread {(q3 - q1) / median:.3f}, min {min(vals):.4g}, max {max(vals):.4g}")


if __name__ == "__main__":
    main()
