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
* per layer, in one interpreter per tree: ``load_config``, ``run()``,
  ``spectrum`` on the default 512-point grid and the CSV write, each timed
  with ``timeit`` over enough calls to last at least 0.2 s.

The cold runs of all trees are interleaved repeat by repeat, so every
column is measured in the same window on the same host.  Only the standard
library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
    """Per-call seconds of each layer on the configs of ``tree``, in this
    interpreter (kerrstokes imported from PYTHONPATH)."""
    import warnings

    from kerrstokes.cli import _write_spectrum_csv
    from kerrstokes.config_io import load_config
    from kerrstokes.scenario import run
    from kerrstokes.spectra import CorrelationKernel, StokesIndex, spectrum

    warnings.simplefilter("ignore")  # physics warnings are not what is timed
    rows = {}

    def best(fn) -> float:
        timer = timeit.Timer(fn)
        number = max(timer.autorange()[0], 1)
        return min(timer.repeat(repeat=REPEATS, number=number)) / number

    results = {}
    for name in CONFIGS:
        path = tree / "configs" / f"{name}.ini"
        config = load_config(path)
        results[name] = run(config)
        rows[f"load_config {name}"] = best(lambda: load_config(path))
        rows[f"run() {name}"] = best(lambda: run(config))
    grid = results["coh_sq"].config.omega_grid.to_array()
    kern = CorrelationKernel(a_h=-0.4, b_g=0.3, t=0.0, stokes_index=StokesIndex.S2)
    rows["spectrum 512 points"] = best(lambda: spectrum(kern, grid, 1.0))
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "spectrum.csv"
        series = results["coh_sq"].spectrum
        rows["csv write 512 points"] = best(lambda: _write_spectrum_csv(out, series))
    return rows


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
    with tempfile.TemporaryDirectory() as scratch:
        for _ in range(REPEATS):
            for label, tree in trees.items():
                work = Path(scratch) / label
                work.mkdir(exist_ok=True)
                for row, command in _cold_commands(tree, work).items():
                    took, peak = _cold_run(command, tree, work)
                    cell = wall.setdefault(row, {})
                    cell[label] = min(cell.get(label, took), took)
                    cell = rss.setdefault(row, {})
                    cell[label] = min(cell.get(label, peak), peak)

    layers: dict[str, dict[str, float]] = {}
    for label, tree in trees.items():
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
        child = [sys.executable, str(Path(__file__).resolve()), "--layers-only"]
        child += ["--tree", f"{label}={tree}"]
        proc = subprocess.run(child, env=env, capture_output=True, text=True, check=True)
        for row, seconds in json.loads(proc.stdout).items():
            layers.setdefault(row, {})[label] = seconds

    import numpy

    report = {
        "statistic": f"minimum of {REPEATS} runs",
        "columns": list(trees),
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
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
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
