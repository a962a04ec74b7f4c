"""Start-up and per-layer timings of kerrstokes, for one or more source trees.

    python3 bench/bench.py                                  # this tree only
    python3 bench/bench.py --tree parent=../old --tree change=. --out BENCH_7.json

Each ``--tree LABEL=DIR`` names a checkout whose ``src/`` is put on
``PYTHONPATH``; the labels become the columns of the report.  Two kinds of
rows are measured, each as the minimum of ``REPEATS`` runs:

* end to end, one fresh interpreter per run: ``python -c 'import numpy'``
  (the floor every run pays), ``import kerrstokes``, ``kerrstokes run`` on
  each config in ``configs/``, ``kerrstokes figure --figure-id 2`` and
  ``kerrstokes verify``; the wall time and the peak RSS of the child;
* per layer, in one fresh interpreter per tree and run: ``load_config``,
  ``run()`` (and ``run()`` of the two_sq config switched to S3),
  ``validate``, the phase scan (one ``optimal_phase_two_sq`` call, closed
  form included), one ``optimal_phase_bs_s01`` call on the bs_interf config
  and one ``optimal_phase_bs_s2`` call on quadrature-locked pulses with S3
  selected, the kernel build (``kernel_two_sq``), ``spectrum`` on the
  default 512-point grid, the CSV write and one in-process ``kerrstokes run``
  export of 10^5 points to CSV and to JSON, each timed with ``timeit`` over
  enough calls to last at least 0.2 s.

Both kinds of runs are interleaved across trees, round by round, so every
column is measured in the same window on the same host.  With two or more
trees the report also gives, per in-process row, the median and range over
the rounds of each column's time divided by the first column's time in the
same round.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("coh_sq", "two_sq", "xpm", "bs_interf")
REPEATS = 5


def _cold_commands(tree: Path, work: Path) -> dict[str, list[str]]:
    """Row name -> argv of one cold run, relative to ``tree``."""
    cli = [sys.executable, "-m", "kerrstokes"]
    commands = {
        "import numpy": [sys.executable, "-c", "import numpy"],
        "import kerrstokes": [sys.executable, "-c", "import kerrstokes"],
    }
    for name in CONFIGS:
        config = tree / "configs" / f"{name}.ini"
        out = work / f"{name}.csv"
        commands[f"run {name}"] = cli + ["run", "--config", str(config), "--out", str(out)]
    commands["figure 2"] = cli + ["figure", "--figure-id", "2", "--out", str(work)]
    commands["verify"] = cli + ["verify", "--out", str(work / "verify.json")]
    return commands


def _cold_run(argv: list[str], tree: Path, work: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one child process; raises on failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    with tempfile.TemporaryFile() as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        took = perf_counter() - start
        # wait4 reaped the child; record its status so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            detail = err.read().decode()
            raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {detail}")
    return took, usage.ru_maxrss / 1024.0


def measure_layers(tree: Path) -> dict[str, float]:
    """Per-call seconds of each layer on the configs of ``tree``, one timing
    each, in this interpreter (kerrstokes imported from PYTHONPATH)."""
    import warnings

    from kerrstokes.cli import _write_spectrum_csv, main
    from kerrstokes.config_io import load_config
    from kerrstokes.optimize import optimal_phase_bs_s01, optimal_phase_bs_s2, optimal_phase_two_sq
    from kerrstokes.pulse import PulseSpec
    from kerrstokes.scenario import run, validate
    from kerrstokes.spectra import StokesIndex, kernel_two_sq, spectrum

    warnings.simplefilter("ignore")  # physics warnings are not what is timed
    rows = {}

    def per_call(fn) -> float:
        timer = timeit.Timer(fn)
        number = max(timer.autorange()[0], 1)
        return timer.timeit(number) / number

    results = {}
    for name in CONFIGS:
        path = tree / "configs" / f"{name}.ini"
        config = load_config(path)
        results[name] = run(config)
        rows[f"load_config {name}"] = per_call(lambda: load_config(path))
        rows[f"run() {name}"] = per_call(lambda: run(config))
    two_sq = results["two_sq"].config
    rows["validate two_sq"] = per_call(lambda: validate(two_sq))
    two_sq_s3 = dataclasses.replace(two_sq, stokes_index=StokesIndex.S3)
    rows["run() two_sq S3"] = per_call(lambda: run(two_sq_s3))
    p1, p2 = two_sq.pulses
    t, omega0 = two_sq.analysis_time, two_sq.omega0
    rows["scan_phase two_sq"] = per_call(lambda: optimal_phase_two_sq(p1, p2, t, omega0))
    bs = results["bs_interf"].config
    b1, b2, _ = bs.pulses
    half = bs.beamsplitter
    rows["optimal_phase bs_s01"] = per_call(
        lambda: optimal_phase_bs_s01(b1, b2, half, bs.analysis_time, 0.7, bs.stokes_index)
    )
    locked = (
        PulseSpec(n0=100.0, gamma=0.005, phi_lin=0.5 * math.pi),  # quadrature lock
        PulseSpec(n0=100.0, gamma=0.005),
        PulseSpec(n0=50.0, phi_lin=0.3),
    )
    rows["optimal_phase bs_s2"] = per_call(
        lambda: optimal_phase_bs_s2(*locked, half, 0.0, 0.7, StokesIndex.S3)
    )
    rows["kernel build two_sq"] = per_call(lambda: kernel_two_sq(p1, p2, t))
    grid = results["coh_sq"].config.omega_grid.to_array()
    kern = kernel_two_sq(p1, p2, t)
    rows["spectrum 512 points"] = per_call(lambda: spectrum(kern, grid, 1.0))
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "spectrum.csv"
        series = results["coh_sq"].spectrum
        rows["csv write 512 points"] = per_call(lambda: _write_spectrum_csv(out, series))
        for fmt in ("csv", "json"):
            argv = ["run", "--config", str(tree / "configs" / "coh_sq.ini"), "--grid", "0:5:100000"]
            argv += ["--format", fmt, "--out", str(Path(work) / f"export.{fmt}")]

            def export(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):  # stdout carries this child's JSON
                    if main(argv) != 0:
                        raise RuntimeError(f"kerrstokes {' '.join(argv)} failed")

            rows[f"export {fmt} 100000 points"] = per_call(export)
    return rows


def _layer_run(tree: Path, label: str) -> dict[str, float]:
    """One child interpreter's ``measure_layers`` timings for ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    child = [sys.executable, str(Path(__file__).resolve()), "--layers-only"]
    child += ["--tree", f"{label}={tree}"]
    proc = subprocess.run(child, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _keep_min(table: dict[str, dict[str, float]], row: str, label: str, value: float) -> None:
    cell = table.setdefault(row, {})
    cell[label] = min(cell.get(label, value), value)


def _ratios(rounds: dict[str, dict[str, list[float]]], labels: list[str]) -> dict:
    """Row -> label -> median, min and max over the rounds of that column's
    time over the first column's time in the same round."""
    base, *others = labels
    report = {}
    for row, cell in rounds.items():
        report[row] = {}
        for label in others:
            ratios = [change / parent for change, parent in zip(cell[label], cell[base])]
            report[row][label] = {
                "median": round(statistics.median(ratios), 3),
                "min": round(min(ratios), 3),
                "max": round(max(ratios), 3),
            }
    return report


def _rounded(table: dict[str, dict[str, float]], digits: int) -> dict[str, dict[str, float]]:
    return {row: {k: round(v, digits) for k, v in cell.items()} for row, cell in table.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", action="append", metavar="LABEL=DIR",
        help="a checkout to measure (repeatable; default: this tree, labelled 'this')",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--layers-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    trees = {}
    for spec in args.tree or [f"this={ROOT}"]:
        label, sep, directory = spec.partition("=")
        if not sep or not label or not (Path(directory) / "src" / "kerrstokes").is_dir():
            parser.error(f"--tree expects LABEL=DIR with DIR/src/kerrstokes, got {spec!r}")
        trees[label] = Path(directory).resolve()

    if args.layers_only:  # child mode: one tree's in-process timings as JSON
        (tree,) = trees.values()
        print(json.dumps(measure_layers(tree)))
        return 0

    wall: dict[str, dict[str, float]] = {}
    rss: dict[str, dict[str, float]] = {}
    layers: dict[str, dict[str, float]] = {}
    layer_rounds: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for _ in range(REPEATS):
            for label, tree in trees.items():
                work = Path(scratch) / label
                work.mkdir(exist_ok=True)
                for row, command in _cold_commands(tree, work).items():
                    took, peak = _cold_run(command, tree, work)
                    _keep_min(wall, row, label, took)
                    _keep_min(rss, row, label, peak)
                for row, seconds in _layer_run(tree, label).items():
                    _keep_min(layers, row, label, seconds)
                    layer_rounds.setdefault(row, {}).setdefault(label, []).append(seconds)

    import numpy

    report = {
        "statistic": f"minimum of {REPEATS} runs",
        "columns": list(trees),
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "cold_wall_s": _rounded(wall, 4),
        "cold_peak_rss_mb": _rounded(rss, 1),
        "cold_run_coh_sq_minus_import_numpy_s": {
            label: round(wall["run coh_sq"][label] - wall["import numpy"][label], 4)
            for label in trees
        },
        "in_process_s_per_call": {
            row: {label: float(f"{v:.3g}") for label, v in cell.items()}
            for row, cell in layers.items()
        },
    }
    if len(trees) > 1:
        first = next(iter(trees))
        report[f"in_process_per_round_ratio_to_{first}"] = _ratios(layer_rounds, list(trees))
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
