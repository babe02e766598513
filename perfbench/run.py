#!/usr/bin/env python3
"""Benchmark of the tbbands pipeline: one workload per run, in a fresh process.

Run from the root of a tbbands checkout:

    python3 perfbench/run.py --workload refine_large --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# BLAS threads for every run: one thread keeps the figures steady on a shared
# two-core host, where a second thread contends with whatever else runs.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median over this many fresh processes, each set up as a run is.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# A tail percentile needs TAIL_BEYOND operations beyond it, and is reported
# (on standard error) only when at least TAIL_MIN_OPS operations completed.
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10

PACKAGE_INIT = os.path.join("src", "tbbands", "__init__.py")
OUT_ROOT = os.path.join("perfbench", "_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import tbbands from ./src of the checkout, never from an installed copy."""
    sys.path.insert(0, os.path.abspath("src"))
    import tbbands
    import tbbands.cli

    if os.path.abspath(tbbands.__file__) != os.path.abspath(PACKAGE_INIT):
        raise ImportError(f"tbbands imported from {tbbands.__file__}, not from {PACKAGE_INIT}")
    return tbbands


class Bench:
    """Everything a run sets up before its first timed operation."""

    def __init__(self, workloads, workload_name: str, seed: int) -> None:
        self.tb = import_program()
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.out_dir = os.path.join(OUT_ROOT, str(os.getpid()))
        os.makedirs(self.out_dir, exist_ok=True)
        self.rounds = self.workload.rounds(seed)
        # Untimed warm-up: pays BLAS start-up and first-call costs.
        self.run_and_check(self.workload.warmup)

    def run_and_check(self, inputs):
        output = self.workload.op(self.tb, *inputs, self.out_dir)
        return self.workloads.check_output(output, *inputs)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:  # another run's directory is still in it
            pass


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process until it could start timing."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    spawned = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - spawned


def setup_time(args, calibration) -> float:
    """Median set-up time of SETUP_PROBES fresh processes, at reference speed."""
    from calibrate import scale

    samples = [calibration.sample()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(args))
        samples.append(calibration.sample())
    return statistics.median(p * scale(a, b) for p, a, b in zip(probes, samples, samples[1:]))


def tail(times: list[float]) -> str:
    """The highest percentile with TAIL_BEYOND operations beyond it, as text;
    empty when fewer than TAIL_MIN_OPS operations completed."""
    if len(times) < TAIL_MIN_OPS:
        return ""
    return f", op tail ({TAIL_BEYOND + 1}th slowest) {sorted(times)[-TAIL_BEYOND - 1]:.4g} s"


def measure(bench: Bench, seconds: float, calibration, tracer) -> dict:
    """Closed loop of whole rounds until the next round would overrun ``seconds``.

    A calibration sample brackets every round. Each completed operation is
    kept as (round index, wall seconds, per-layer row or None).
    """
    from spans import op_metrics

    ops, errors, samples, round_times = [], [], [calibration.sample()], []
    attempted = failed = 0
    first = None
    started = time.monotonic()
    for index, round_inputs in enumerate(bench.rounds):
        round_started = time.monotonic()
        for inputs in round_inputs:
            attempted += 1
            root = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            try:
                output = bench.workload.op(bench.tb, *inputs, bench.out_dir)
            except Exception:  # the loop must go on: count it and keep the traceback
                failed += 1
                traceback.print_exc()
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.close(root)
            try:
                digest, nbytes = bench.workloads.check_output(output, *inputs)
            except bench.workloads.check.CheckError as exc:
                errors.append(str(exc))
                digest, nbytes = "", 0
            if first is None:
                first = (inputs, digest)
            row = None
            if tracer:
                row = op_metrics(tracer.spans, root, inputs[0] ** 2, nbytes)
                tracer.spans.clear()
            ops.append((index, elapsed, row))
        samples.append(calibration.sample())
        now = time.monotonic()
        round_times.append(now - round_started)
        if now - started + statistics.median(round_times) > seconds:
            break
    return {
        "ops": ops, "samples": samples, "errors": errors, "attempted": attempted,
        "failed": failed, "first": first, "wall": time.monotonic() - started,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"perfbench: {PACKAGE_INIT} not found; run from the root of a tbbands checkout", file=sys.stderr)
        return 2
    # Before numpy is first imported, which reads these once.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        bench = Bench(workloads, args.workload, args.seed)
        ready = time.monotonic()
        bench.close()
        print(ready)
        return 0

    from calibrate import Calibration, scale

    calibration = Calibration()
    setup_s = None if args.trace else setup_time(args, calibration)
    bench = Bench(workloads, args.workload, args.seed)
    tracer = None
    try:
        if args.trace:
            from spans import SOLVER_SITES, Tracer

            tracer = Tracer()
            tracer.install(SOLVER_SITES + bench.workload.sites)
        run = measure(bench, args.seconds, calibration, tracer)
        if tracer:
            tracer.restore()
        if bench.workload.determinism and run["first"] is not None:
            inputs, digest = run["first"]
            again, _ = bench.run_and_check(inputs)
            if again != digest:
                run["errors"].append(f"re-running {inputs} gave different bytes")
    finally:
        if tracer:
            tracer.restore()
        bench.close()

    for error in run["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if not run["ops"]:
        print(f"perfbench: all {run['attempted']} operations failed; nothing to report", file=sys.stderr)
        return 1
    samples = run["samples"]
    speeds = [scale(samples[i], samples[i + 1]) for i, _, _ in run["ops"]]
    factors = speeds if bench.workload.calibrated else [1.0] * len(speeds)
    raw = [elapsed for _, elapsed, _ in run["ops"]]
    times = [t * f for t, f in zip(raw, factors)]
    print(
        f"perfbench: {args.workload} seed={args.seed}: {len(times)} operations in "
        f"{len(samples) - 1} rounds, {run['wall']:.1f} s; raw op p50 {statistics.median(raw):.4g} s, "
        f"speed factor {min(speeds):.3f}-{max(speeds):.3f}"
        f"{'' if bench.workload.calibrated else ' (not applied)'}{tail(times)}",
        file=sys.stderr,
    )
    if args.trace:
        from spans import LAYER_METRICS, layer_report

        rows = [
            {k: v * factor if LAYER_METRICS[k][0] == "s" else v for k, v in row.items()}
            for (_, _, row), factor in zip(run["ops"], factors)
        ]
        metrics = {"bench.op_p50_traced_s": {"value": statistics.median(times), "unit": "s"}}
        metrics.update(layer_report(rows, tracer.missing))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    result = {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
