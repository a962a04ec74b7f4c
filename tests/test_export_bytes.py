"""The spectrum writers of ``kerrstokes run`` against the encoders they replace.

``--format json`` must write exactly ``json.dump(document, sort_keys=True,
indent=1)`` plus a newline, and ``--format csv`` exactly the rows of the
f-string ``f"{x:.17g}"``.  The writers convert floats chunk by chunk with
``kerrstokes._floattext``, so every comparison is byte for byte, on
edge-case floats, on grids that span several chunks and on the documents
of real runs with and without an optimum; the converter itself is checked
against CPython on a few hundred thousand floats per style.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrstokes import _floattext, cli
from kerrstokes.config_io import load_config
from kerrstokes.figures import FIGURE_IDS, figure_preset
from kerrstokes.scenario import run
from kerrstokes.spectra import SpectrumSeries, StokesIndex

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_FLOAT = 1.7976931348623157e308
# Signed zeros, subnormals and the largest float; the switch points between
# fixed and exponent notation (1e-4/1e-5 for both styles, 1e16 for repr,
# 1e17 for "%.17g") and their neighbours; rounding ties at 17 digits
# (1 + 2**-17) and between repr's shortest candidates (926062528788316.25);
# powers of two, whose lower gap is half the upper one; integers at 2**53.
EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, MAX_FLOAT, -MAX_FLOAT, 0.1, 1.0 / 3.0, 123456789.0,
    1 + 2**-17, 926062528788316.25, -9999999999999998.0, 1e17, float(np.nextafter(1e17, 0.0)),
    float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-5, 1.0)), 4.0, 2.0**-60, -(2.0**53) - 2.0,
]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _series(omega, values, normalized) -> SpectrumSeries:
    return SpectrumSeries(*(np.asarray(c, dtype=float) for c in (omega, values, normalized)), 1.0)


def _json_reference(document: dict, series: SpectrumSeries) -> bytes:
    spectrum = {
        "omega": series.omega.tolist(),
        "s_value": series.values.tolist(),
        "s_star": series.normalized.tolist(),
    }
    return (json.dumps({**document, "spectrum": spectrum}, sort_keys=True, indent=1) + "\n").encode()


def _csv_reference(series: SpectrumSeries) -> bytes:
    rows = zip(series.omega.tolist(), series.values.tolist(), series.normalized.tolist())
    lines = (f"{omega:.17g},{value:.17g},{star:.17g}\n" for omega, value, star in rows)
    return ("omega,s_value,s_star\n" + "".join(lines)).encode()


def _assert_both_writers_match(document: dict, series: SpectrumSeries) -> None:
    # a temporary directory rather than tmp_path: hypothesis tests take no
    # function-scoped fixtures
    with tempfile.TemporaryDirectory() as work:
        json_path, csv_path = Path(work) / "out.json", Path(work) / "out.csv"
        cli._write_spectrum_json(json_path, document, series)
        cli._write_spectrum_csv(csv_path, series)
        assert json_path.read_bytes() == _json_reference(document, series)
        assert csv_path.read_bytes() == _csv_reference(series)


def _result(name: str, **changes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # physics warnings are not under test here
        return run(dataclasses.replace(load_config(CONFIGS / f"{name}.ini"), **changes))


@pytest.mark.parametrize(
    "name, changes, optimum",
    [
        ("coh_sq", {}, "finite"),
        ("coh_sq", {"omega0": None}, None),
        ("coh_sq", {"stokes_index": StokesIndex.S0, "omega0": 0.7}, "null fields"),
        ("bs_interf", {}, "finite"),
    ],
    ids=["coh_sq-optimum", "coh_sq-no-optimum", "coh_sq-degenerate-optimum", "bs_interf-optimum"],
)
def test_json_and_csv_writers_match_the_reference_encoders_on_runs(name, changes, optimum):
    result = _result(name, **changes)
    document = cli._run_payload(result)
    if optimum is None:
        assert document["optimum"] is None
    else:
        assert (document["optimum"]["delta_phi_opt"] is None) == (optimum == "null fields")
    _assert_both_writers_match(document, result.spectrum)


def test_writers_match_on_edge_floats_and_a_two_point_grid():
    document = cli._run_payload(_result("coh_sq"))
    edges = np.array(EDGES)
    _assert_both_writers_match(document, _series(edges, edges[::-1], -edges))
    _assert_both_writers_match(document, _series([-0.0, 5.0], [1e16, 5e-324], [1e-5, MAX_FLOAT]))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_writers_match_across_chunk_boundaries(chunk):
    document = cli._run_payload(_result("two_sq"))
    values = np.array(EDGES * 2)
    with mock.patch.object(cli, "_CHUNK", chunk):
        for size in range(1, len(EDGES) + 1):
            _assert_both_writers_match(document, _series(values[:size], values[1 : size + 1], -values[:size]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1, max_size=20), st.integers(1, 6))
def test_writers_match_on_generated_spectra(rows, chunk):
    series = _series(*zip(*rows))
    document = {"kind": "coh_sq", "optimum": None, "schema_version": cli.SCHEMA_VERSION}
    with mock.patch.object(cli, "_CHUNK", chunk):
        _assert_both_writers_match(document, series)


def test_cli_run_writes_the_reference_bytes_over_several_chunks(tmp_path, capsys):
    """Through ``main``, on a grid of two chunks and one point."""
    count = 2 * cli._CHUNK + 1
    config = CONFIGS / "xpm.ini"
    result = _result("xpm", omega_grid=cli._parse_grid_flag(f"0:5:{count}"))
    for fmt, reference in [
        ("json", _json_reference(cli._run_payload(result), result.spectrum)),
        ("csv", _csv_reference(result.spectrum)),
    ]:
        out = tmp_path / f"spectrum.{fmt}"
        argv = ["run", "--config", str(config), "--grid", f"0:5:{count}", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == reference


def _exactness_inputs() -> np.ndarray:
    """Seeded floats for the converter: random bit patterns, log-uniform
    magnitudes, dyadic ties, every power of two (repr's lower gap is half the
    upper one there), integers around 2**53, 1e16 and 1e17, powers of ten
    with their neighbours, and the edge values."""
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2**64, 110_000, dtype=np.uint64).view(np.float64)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 60_000) * rng.choice([-1.0, 1.0], 60_000)
    odd = 2 * rng.integers(0, 2**16, 10_000) + 1
    ties_17 = (1.0 + odd * 2.0**-17) * 2.0 ** rng.integers(-40, 40, odd.size)
    ties_repr = rng.integers(2**49, 2**50, 10_000) + rng.choice([0.25, 0.75], 10_000)
    twos = 2.0 ** np.arange(-1074, 1024)
    integers = np.concatenate([c + np.arange(-2_000.0, 2_000.0) for c in (2.0**53, 1e16, 1e17)])
    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    values = np.concatenate([bits, magnitudes, ties_17, ties_repr, twos, integers, tens, EDGES])
    return values[np.isfinite(values)]


@pytest.mark.parametrize("style, reference", [("%.17g", "%.17g".__mod__), ("repr", float.__repr__)])
def test_converter_writes_cpython_bytes_on_edge_and_random_floats(style, reference):
    values = _exactness_inputs()
    assert values.size >= 200_000
    text = _floattext.rows((values,), style, (b"\n",)).tobytes().decode("ascii")
    assert text.split("\n")[:-1] == [reference(x) for x in values.tolist()]


def _spectra():
    """Every example config's spectrum and every figure preset curve's."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the presets knowingly leave the weak-coupling regime
        configs = [load_config(path) for path in sorted(CONFIGS.glob("*.ini"))]
        configs += [c for fid in FIGURE_IDS if fid != 7 for c in figure_preset(fid).configs]
        return [run(config).spectrum for config in configs]


def test_real_spectra_take_no_cpython_fallback():
    """A later edit that sent every float down the slow path would still
    pass the byte tests; this pins the fast path on the shipped spectra."""
    spectra = _spectra()
    assert len(spectra) > 40
    for series in spectra:
        for column in (series.omega, series.values, series.normalized):
            for style in ("%.17g", "repr"):
                assert _floattext.fallback_count(column, style) == 0


def test_fallback_count_names_the_undecidable_floats():
    # a 17-digit tie (17 digits are repr's shortest too), a tie between
    # repr's two 16-digit candidates, a subnormal and a value beyond 1e280
    values = np.array([1 + 2**-17, 926062528788316.25, 5e-324, 1e300, 0.5])
    assert _floattext.fallback_count(values, "%.17g") == 3
    assert _floattext.fallback_count(values, "repr") == 4


def test_importing_the_cli_loads_no_converter_fractions_or_decimal():
    src = Path(cli.__file__).resolve().parent.parent
    code = (
        "import sys, kerrstokes.cli; "
        "print(sorted({'kerrstokes._floattext', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
