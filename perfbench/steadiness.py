#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how far its figures spread.

Run from the root of the checkout:

    python3 perfbench/steadiness.py --workloads sweep_small --seeds 1 2 3 4 5

For each workload and end-to-end metric it prints the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound and a third of it. Every run
and the summary are written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RESULTS = os.path.join("perfbench", "results")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            started = time.monotonic()
            done = subprocess.run(command, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.monotonic() - started
            result["stderr_tail"] = done.stderr.splitlines()[-1:]
            runs.append(result)
            print(f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}",
                  file=sys.stderr)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if None in values:
                rows[name] = {"values": values}
                continue
            median = statistics.median(values)
            row = {"median": median, "values": values}
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row["spread"] = (q3 - q1) / abs(median)
            rows[name] = row
            bound = bounds.get(name)
            spread = row.get("spread", float("nan"))
            limit = f" bound={bound} third={bound / 3:.4f}" if bound is not None else ""
            print(f"  {name:28s} median={median:.6g} spread={spread:.4f}{limit}")
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"  failed share per run: {sorted(set(failed))}; all correct: {all(r['correct'] for r in runs)}")
        summary[workload] = {"runs": runs, "metrics": rows}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"steadiness-{stamp}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
