"""The spectrum writers of ``kerrstokes run`` against the encoders they replace.

``--format json`` must write exactly ``json.dump(document, sort_keys=True,
indent=1)`` plus a newline, and ``--format csv`` exactly the rows of the
f-string ``f"{x:.17g}"``.  The writers convert floats chunk by chunk, so
every comparison is byte for byte, on edge-case floats, on grids that span
several chunks and on the documents of real runs with and without an
optimum.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrstokes import cli
from kerrstokes.config_io import load_config
from kerrstokes.scenario import run
from kerrstokes.spectra import SpectrumSeries, StokesIndex

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAX_FLOAT = 1.7976931348623157e308
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, MAX_FLOAT, -MAX_FLOAT, 0.1, 1.0 / 3.0, 123456789.0]
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
        for size in range(1, 12):
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
