"""Benchmark of kerrstokes: one command, three workloads, checked outputs.

    python3 kbench/run.py --workload optimize-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics (setup_s, ops_per_s, op_p50_ms, peak_rss_mb);
with ``--trace 1`` it carries the per-layer metrics instead, and the spans
are written to ``kbench-out/``.  The exit code is non-zero only when the
benchmark cannot run at all (for example without ``src/kerrstokes``).
"""

from __future__ import annotations

import os

# One compute thread: the load is this process alone.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / "kbench-out"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
# Every run makes at least this many rounds, so repeat outputs are compared.
MIN_ROUNDS = 2
MAX_PROBLEMS_SHOWN = 5


class RunStats:
    """Counts, op times and problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        self.op_time = 0.0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.controlled = False


def run_round(workload, items, stats, tracer=None):
    """Run every item once; return the summed op time of the round."""
    spent = 0.0
    for slot, item in enumerate(items):
        stats.attempted += 1
        if tracer is not None:
            tracer.op = stats.attempted
        start = perf_counter()
        try:
            output = workload.op(item)
        except Exception:  # an op that raises is a failed op; the run goes on
            spent += perf_counter() - start
            stats.failed += 1
            stats.failures.append(traceback.format_exc(limit=3))
            continue
        took = perf_counter() - start
        spent += took
        stats.durations.append(took)
        if tracer is not None and hasattr(workload, "output_path"):
            tracer.counts["cli.bytes_written"] += os.path.getsize(workload.output_path(item))
        stats.problems += [f"op {slot}: {p}" for p in workload.check(slot, item, output)]
        if not stats.controlled:
            stats.controlled = True
            if not workload.check(slot, item, output, perturb=True):
                stats.problems.append("negative control: a perturbed output passed the check")
    stats.op_time += spent
    return spent


def time_setup(args):
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        took = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return took


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workload, stats):
    setup_times = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    items = workload.setup(args.seed, OUT)
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
        run_round(workload, items, stats)
        rounds += 1
    completed = len(stats.durations)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(completed / stats.op_time, "ops/s"),
        "op_p50_ms": metric(statistics.median(stats.durations) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_layers(args, workload, stats):
    """Alternate untraced and traced rounds; report per-layer metrics."""
    import kerrstokes.cli  # every module the tracer wraps, before it installs
    import tracing

    layers = tracing.import_times(SRC)
    tracer = tracing.Tracer()
    tracer.install()
    items = workload.setup(args.seed, OUT)
    tracer.uninstall()
    tracer.counts.clear()
    run_round(workload, items, stats)  # warm-up, so neither side pays first-call costs
    plain = traced = 0.0
    traced_ops = 0
    start = perf_counter()
    while traced_ops == 0 or perf_counter() - start < args.seconds:
        plain += run_round(workload, items, stats)
        tracer.install()
        try:
            traced += run_round(workload, items, stats, tracer)
        finally:
            tracer.uninstall()
        traced_ops += len(items)
    layers.update(tracer.layer_metrics(traced_ops))
    layers["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    return {name: metric(layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kerrstokes" / "__init__.py").is_file():
        print(f"kbench: no kerrstokes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    warnings.simplefilter("ignore")  # physics warnings are not the benchmark's output

    if args.probe:
        workload.setup(args.seed, OUT)
        print("ready", flush=True)
        return 0

    import kerrstokes
    import refmodel

    if not Path(kerrstokes.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kbench: kerrstokes imported from {kerrstokes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    stats = RunStats()
    for name, ok, detail in refmodel.self_test(ROOT / "configs"):
        if not ok:
            stats.problems.append(f"reference model self-test {name}: {detail}")
    if args.trace:
        metrics = measure_layers(args, workload, stats)
    else:
        metrics = measure(args, workload, stats)
    for problem in (stats.failures + stats.problems)[:MAX_PROBLEMS_SHOWN]:
        print(f"kbench: {problem}", file=sys.stderr)
    print(f"kbench: {args.workload} seed {args.seed}: {stats.attempted} ops, "
          f"{stats.failed} failed, {len(stats.problems)} problems", file=sys.stderr)
    result = {
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
