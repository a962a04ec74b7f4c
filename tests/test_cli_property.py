"""The CLI contract over generated configs: a finite result or a JSON error.

For every INI file the strategies below can write, ``kerrstokes run`` must
either exit 0 with strict-JSON stdout and a finite spectrum file, or exit
1 (parse), 2 (validation) or 3 (I/O) with one parseable JSON error object on
stderr.  Any traceback fails the test.  The strategies reach the edges of
double precision on purpose: denormal normalizations and envelope
durations, photon numbers up to 1e308 and couplings far outside the weak
regime.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerrstokes.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main

KINDS = {"coh_sq": 2, "two_sq": 2, "xpm": 2, "bs_interf": 3}


def _floats(low: float, high: float, edges=()):
    """Floats in [low, high], plus the listed edge values, drawn often."""
    typical = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.one_of(typical, st.sampled_from(edges)) if edges else typical


N0 = st.one_of(
    _floats(0.0, 1e3, [0.0, 5e-324, 1e-310, 1e150, 1e300, 1e308]),
    _floats(0.0, 1e308),
)
COUPLING = _floats(0.0, 0.05, [0.0, 1e-300, 0.45, 1.0, 1e3])
TAU_P = _floats(0.1, 10.0, [5e-324, 1e-310, 1e-200, 1e-160, 1e200])
PHASE = _floats(-10.0, 10.0, [0.5 * math.pi, 1e6])
NORMALIZATION = st.none() | _floats(
    1e-3, 1e3, [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e308]
)


@st.composite
def pulse_sections(draw, count: int, cross: bool) -> list[str]:
    sections = []
    for i in range(1, count + 1):
        lines = [f"[pulse{i}]", f"n0 = {draw(N0)!r}", f"phi_lin = {draw(PHASE)!r}"]
        envelope = draw(st.sampled_from(["constant", "gaussian", "sech"]))
        lines.append(f"envelope = {envelope}")
        if envelope != "constant":
            lines.append(f"tau_p = {draw(TAU_P)!r}")
        if draw(st.booleans()):
            lines.append(f"gamma = {draw(COUPLING)!r}")
        if cross and draw(st.booleans()):
            lines.append(f"gamma_x = {draw(COUPLING)!r}")
        sections.append("\n".join(lines))
    return sections


@st.composite
def configs(draw) -> tuple[str, list[str]]:
    kind = draw(st.sampled_from(sorted(KINDS)))
    scenario = [
        "[scenario]",
        f"kind = {kind}",
        f"stokes_index = {draw(st.sampled_from(['S0', 'S1', 'S2', 'S3']))}",
        f"analysis_time = {draw(_floats(-2.0, 2.0, [1e300, -1e300]))!r}",
    ]
    normalization = draw(NORMALIZATION)
    if normalization is not None:
        scenario.append(f"normalization = {normalization!r}")
    omega0 = draw(st.none() | _floats(0.0, 5.0, [1e6]))
    if omega0 is not None:
        scenario.append(f"omega0 = {omega0!r}")
    start = draw(_floats(0.0, 5.0, [1e6]))
    stop = start + draw(_floats(1e-3, 10.0, [1e6]))
    count = draw(st.integers(2, 64))
    grid = ["[grid]", f"start = {start!r}", f"stop = {stop!r}", f"count = {count}"]
    medium = ["[medium]", f"tau_r = {draw(_floats(0.1, 10.0, [1e-300, 1e300]))!r}"]
    sections = ["\n".join(scenario), "\n".join(grid), "\n".join(medium)]
    sections += draw(pulse_sections(KINDS[kind], cross=kind == "xpm"))
    if kind == "bs_interf":
        r = draw(_floats(0.0, 1.0, [0.0, 0.5, 1.0]))
        sections.append(f"[beamsplitter]\nr = {r!r}\nt = {1.0 - r!r}")
    fmt = draw(st.sampled_from(["csv", "json"]))
    return "\n\n".join(sections) + "\n", ["--format", fmt]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _assert_finite(values):
    for value in values:
        assert value is None or math.isfinite(value), values


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_run_gives_a_finite_result_or_a_json_error(case):
    text, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "case.ini"
        config.write_text(text)
        out_path = Path(tmp) / f"out.{flags[1]}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(config), "--out", str(out_path), *flags])
        if code == EXIT_OK:
            bundle = _strict_json(stdout.getvalue())
            _assert_finite(bundle["summary"].values())
            if flags[1] == "json":
                spectrum = _strict_json(out_path.read_text())["spectrum"]
                for column in spectrum.values():
                    _assert_finite(column)
            else:
                rows = out_path.read_text().splitlines()[1:]
                _assert_finite(float(v) for row in rows for v in row.split(","))
        else:
            assert code in (EXIT_PARSE, EXIT_VALIDATION, EXIT_IO), (code, text)
            assert stdout.getvalue() == ""
            assert "error" in _strict_json(stderr.getvalue()), text
