"""The CLI contract over generated configs and argv: a result or a JSON error.

For every INI file the strategies below can write, ``kerrstokes run`` must
either exit 0 with strict-JSON stdout and a finite spectrum file, or exit
1 (parse), 2 (validation) or 3 (I/O) with one parseable JSON error object on
stderr.  Any traceback fails the test.  The strategies reach the edges of
double precision on purpose: denormal normalizations and envelope
durations, photon numbers up to 1e308 and couplings far outside the weak
regime.

For every command line drawn from a pool of subcommands, known and unknown
flags and good and bad values, ``main`` must return 0 having written its
output, or a documented non-zero code with one JSON error object on stderr
(4, a failed ``verify``, prints its report instead).  It must never raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerrstokes.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_VERIFY, main

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


# ------------------------------------------------------------------ argv

EXAMPLES = [str(p) for p in sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))]
# Relative paths resolve in the case's temporary working directory, where
# "bad.ini" holds a config that does not parse and "missing.ini" is absent; a
# path with an embedded NUL is one the OS rejects as a value.
FLAG_VALUES = {
    "--config": EXAMPLES + ["missing.ini", "bad.ini", "nul\x00.ini"],
    "--out": ["out.csv", "out.json", ".", "no/such/dir/out.csv", "nul\x00.csv"],
    "--format": ["csv", "json", "xml"],
    "--grid": ["0:5:16", "0:5", "a:b:c", "0:5:2e6", "5:0:16", "0:5:1", "0:5:2000000"],
    "--optimize-at": ["0.5", "0", "-1", "abc", "nan", "1e308"],
    "--figure-id": ["1", "7", "12", "99", "x"],
    "--inject-tau-mismatch": ["1.05", "0", "nan", "x"],
}
UNKNOWN = ["--bogus", "-x", "extra", "--"]
OWN_FLAGS = {
    "run": ["--config", "--out", "--format", "--grid", "--optimize-at"],
    "figure": ["--figure-id", "--out"],
    "verify": ["--out", "--inject-tau-mismatch"],
    "reference-config": [],
    "bogus": [],
}
# verify runs the whole self-check battery, so it is drawn rarely
SUBCOMMANDS = [
    "run", "figure", "run", "bogus", "run", "verify", "run", "figure", "reference-config"
]


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(SUBCOMMANDS + [None]))
    argv = [] if command is None else [command]
    own = OWN_FLAGS.get(command) or sorted(FLAG_VALUES)
    if command == "run" and draw(st.integers(0, 3)):  # mostly a config that can run
        argv += ["--config", draw(st.sampled_from(EXAMPLES))]
    if command == "figure" and draw(st.integers(0, 3)):
        argv += ["--figure-id", draw(st.sampled_from(FLAG_VALUES["--figure-id"]))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 5)) == 0:  # anything from the pool, a lone flag too
            argv.append(draw(st.sampled_from(UNKNOWN + sorted(FLAG_VALUES))))
        else:
            flag = draw(st.sampled_from(own if draw(st.integers(0, 5)) else sorted(FLAG_VALUES)))
            argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    return argv


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


@settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command_lines())
def test_any_command_line_gives_its_output_or_a_json_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "bad.ini").write_text("[scenario\nkind = coh_sq\n")
        before = _files(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = _files(root) - before
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == EXIT_OK:
        assert err == "", argv
        command = next(a for a in argv if a in SUBCOMMANDS)
        if command in ("run", "figure"):
            assert written and out.count("\n") == 1 and _strict_json(out), argv
        else:  # verify without --out and reference-config print their output
            assert written or out, argv
    elif code == EXIT_VERIFY:
        assert err == "" and _strict_json(out)["passed"] is False, argv
    else:
        assert code in (EXIT_PARSE, EXIT_VALIDATION, EXIT_IO), (code, argv)
        assert out == "", argv
        assert err.count("\n") == 1 and "error" in _strict_json(err), argv
