"""Command-line interface: exit codes, output contracts, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kerrstokes
from kerrstokes.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    main,
)
from kerrstokes.scenario import MAX_GRID_POINTS

BASIC = """\
[scenario]
kind = coh_sq
omega0 = 0.0

[pulse1]
n0 = 1

[pulse2]
n0 = 100
gamma = 0.005
"""

UNBALANCED_BS = """\
[scenario]
kind = bs_interf

[pulse1]
n0 = 1
gamma = 0.02

[pulse2]
n0 = 1.5
gamma = 0.02

[pulse3]
n0 = 0
[beamsplitter]
r = 0.6
t = 0.42
"""


@pytest.fixture
def basic_ini(tmp_path):
    path = tmp_path / "basic.ini"
    path.write_text(BASIC)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err):
    return json.loads(err)["error"]


def test_run_writes_csv_and_summary_bundle(tmp_path, basic_ini, capsys):
    out = tmp_path / "spec.csv"
    code, stdout, _ = run_cli(capsys, "run", "--config", basic_ini, "--out", out)
    assert code == EXIT_OK
    bundle = json.loads(stdout)
    assert bundle["kind"] == "coh_sq"
    assert bundle["points"] == 512
    assert bundle["optimum"]["s_min_closed"] == pytest.approx(3 - 2 * math.sqrt(2))

    lines = out.read_text().splitlines()
    assert lines[0] == "omega,s_value,s_star"
    assert len(lines) == 513
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # the grid starts at the optimization frequency, so row one sits at the minimum
    assert float(first[1]) == pytest.approx(bundle["optimum"]["s_min_closed"], abs=1e-12)


def test_csv_floats_round_trip_exactly(tmp_path, basic_ini, capsys):
    out = tmp_path / "spec.csv"
    run_cli(capsys, "run", "--config", basic_ini, "--out", out)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    code, stdout, _ = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "again.json",
        "--format", "json",
    )
    doc = json.loads((tmp_path / "again.json").read_text())
    np.testing.assert_array_equal(rows[:, 1], np.array(doc["spectrum"]["s_value"]))
    np.testing.assert_array_equal(rows[:, 2], np.array(doc["spectrum"]["s_star"]))


def test_rerun_is_byte_identical(tmp_path, basic_ini, capsys):
    out = tmp_path / "spec.csv"
    code1, stdout1, _ = run_cli(capsys, "run", "--config", basic_ini, "--out", out)
    first = out.read_bytes()
    code2, stdout2, _ = run_cli(capsys, "run", "--config", basic_ini, "--out", out)
    assert (code1, code2) == (EXIT_OK, EXIT_OK)
    assert out.read_bytes() == first
    assert stdout1 == stdout2


def test_grid_and_frequency_overrides(tmp_path, basic_ini, capsys):
    out = tmp_path / "grid.csv"
    code, stdout, _ = run_cli(
        capsys, "run", "--config", basic_ini, "--out", out,
        "--grid", "0:2:64", "--optimize-at", "1.0",
    )
    assert code == EXIT_OK
    bundle = json.loads(stdout)
    assert bundle["points"] == 64
    assert bundle["optimum"]["omega0"] == 1.0
    assert bundle["optimum"]["s_min_closed"] == pytest.approx(1.5 - math.sqrt(1.25))


def test_degenerate_optimum_serializes_nan_as_null(tmp_path, capsys):
    path = tmp_path / "flat.ini"
    path.write_text(
        "[scenario]\nkind = coh_sq\nomega0 = 0.0\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 5\n"
    )
    code, stdout, _ = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "o.csv")
    assert code == EXIT_OK
    optimum = json.loads(stdout)["optimum"]
    assert optimum["delta_phi_opt"] is None
    assert "degenerate" in optimum["flags"]


def test_missing_config_maps_to_io_exit(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--config", tmp_path / "nope.ini", "--out", tmp_path / "x.csv")
    assert code == EXIT_IO
    assert stderr_error(err)["code"] == "io"


def test_malformed_number_maps_to_parse_exit(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nkind = coh_sq\n[pulse1]\nn0 = zz\n[pulse2]\nn0 = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_PARSE
    assert stderr_error(err)["code"] == "parse"


def test_non_utf8_config_maps_to_parse_exit(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[scenario]\nkind = coh_sq\n# \xff\n")
    code, _, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_PARSE
    assert stderr_error(err)["code"] == "parse"


def test_unbalanced_splitter_maps_to_validation_exit(tmp_path, capsys):
    path = tmp_path / "bs.ini"
    path.write_text(UNBALANCED_BS)
    code, _, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION
    error = stderr_error(err)
    assert error["code"] == "validation"
    assert any(issue["field"] == "beamsplitter" for issue in error["issues"])


def test_strong_coupling_warning_lands_in_bundle_not_console(tmp_path, capsys, recwarn):
    path = tmp_path / "strong.ini"
    path.write_text(
        "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 4\ngamma = 0.45\n"
    )
    code, stdout, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "s.csv")
    assert code == EXIT_OK
    bundle = json.loads(stdout)
    assert any("pulse2.gamma" == w["field"] for w in bundle["warnings"])
    assert err == ""
    assert not [w for w in recwarn if "weak-coupling" in str(w.message)]


def test_figure_subcommand_writes_labeled_files(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "figure", "--figure-id", "12", "--out", tmp_path)
    assert code == EXIT_OK
    bundle = json.loads(stdout)
    assert bundle["figure_id"] == 12
    for name in bundle["files"]:
        assert (tmp_path / name).is_file()
    assert len(bundle["files"]) == 4


def test_schematic_figure_has_no_data(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure", "--figure-id", "7", "--out", tmp_path)
    assert code == EXIT_VALIDATION
    assert "schematic" in err


def test_unknown_figure_id(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure", "--figure-id", "42", "--out", tmp_path)
    assert code == EXIT_VALIDATION


def test_verify_subcommand_passes_and_reports(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify", "--out", report_path)
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) >= 20
    names = {c["name"] for c in report["checks"]}
    assert "optimum-coh-sq-closed-vs-scan" in names
    # each check's time runs from the previous check's record, so they add up
    # to the total (rounded to 3 decimals there and to 6 per check)
    times = [c["elapsed_seconds"] for c in report["checks"]]
    assert min(times) >= 0.0
    assert sum(times) <= report["elapsed_seconds"] + 5e-4 + len(times) * 5e-7


def test_verify_detects_injected_fourier_mismatch(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--inject-tau-mismatch", "1.05")
    assert code == EXIT_VERIFY
    report = json.loads(stdout)
    broken = [c["name"] for c in report["checks"] if not c["passed"]]
    assert broken and all(name.startswith("fourier-pair") for name in broken)


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_verify_rejects_a_non_positive_or_non_finite_injection(value, capsys):
    code, out, err = run_cli(capsys, "verify", "--inject-tau-mismatch", value)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert [i["field"] for i in stderr_error(err)["issues"]] == ["inject-tau-mismatch"]


def test_reference_config_round_trips_through_run(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "reference-config")
    assert code == EXIT_OK
    path = tmp_path / "ref.ini"
    path.write_text(stdout)
    code, _, _ = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "ref.csv")
    assert code == EXIT_OK


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--optimize-at", "abc"], "argument --optimize-at: invalid float value: 'abc'"),
        (["--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["optimize-at", "format", "bogus-run-flag"],
)
def test_bad_run_flag_is_a_json_parse_error(basic_ini, tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "run", "--config", basic_ini, "--out", out, *argv)
    assert code == EXIT_PARSE and stdout == ""
    error = stderr_error(err)
    assert error["code"] == "parse"
    assert [i["field"] for i in error["issues"]] == ["argv"]
    assert error["issues"][0]["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "the following arguments are required: --config"),
        (["--bogus"], "the following arguments are required: command"),
        (["figure", "--figure-id", "x"], "argument --figure-id: invalid int value: 'x'"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    ],
    ids=["run-without-config", "bogus-top-level-flag", "figure-id", "unknown-subcommand"],
)
def test_command_line_usage_error_is_a_json_parse_error(capsys, argv, message):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE and stdout == ""
    error = stderr_error(err)  # one JSON object, no usage text
    assert error["code"] == "parse"
    assert [i["field"] for i in error["issues"]] == ["argv"]
    assert error["issues"][0]["message"].startswith(message)


def test_help_flag_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kerrstokes run")


COH_SQ_INI = Path(__file__).parents[1] / "configs" / "coh_sq.ini"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--config", "nul\x00.ini"], "config"),
        (["run", "--config", COH_SQ_INI, "--out", "nul\x00.csv"], "out"),
        (["figure", "--figure-id", "1", "--out", "nul\x00"], "out"),
        (["verify", "--out", "nul\x00.json"], "out"),
    ],
    ids=["run-config", "run-out", "figure-out", "verify-out"],
)
def test_path_with_embedded_nul_is_a_validation_error_on_its_field(capsys, argv, field):
    # the OS rejects such a path as a value (ValueError), not as a failed I/O;
    # only an in-process caller of main() can pass one, a shell cannot
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and stdout == ""
    assert err.count("\n") == 1
    error = stderr_error(err)
    assert error["code"] == "validation"
    assert [i["field"] for i in error["issues"]] == [field]


def test_overflowing_kerr_phase_maps_to_validation_exit(tmp_path, capsys):
    # phi2 = 2 gamma n0 = 1e298 squares past the double range
    path = tmp_path / "huge.ini"
    path.write_text(BASIC.replace("n0 = 100", "n0 = 1e300"))
    code, _, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION
    error = stderr_error(err)
    assert error["code"] == "validation"
    assert "double precision" in error["issues"][0]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_nan_optimization_frequency_names_its_field(tmp_path, basic_ini, capsys):
    code, _, err = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "x.csv", "--optimize-at", "nan"
    )
    assert code == EXIT_VALIDATION
    assert [i["field"] for i in stderr_error(err)["issues"]] == ["scenario.omega0"]


def test_bad_grid_override_names_its_field(tmp_path, basic_ini, capsys):
    code, _, err = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "x.csv", "--grid", "3:1:10"
    )
    assert code == EXIT_VALIDATION
    assert [i["field"] for i in stderr_error(err)["issues"]] == ["grid"]


def test_non_integer_grid_count_says_count_must_be_an_integer(tmp_path, basic_ini, capsys):
    code, out, err = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "x.csv", "--grid", "0:5:2e6"
    )
    assert code == EXIT_PARSE and out == ""
    issues = stderr_error(err)["issues"]
    assert [i["field"] for i in issues] == ["grid"]
    assert issues[0]["message"] == "--grid COUNT must be an integer, got '0:5:2e6'"


# three points between adjacent doubles: linspace rounds them onto one value
COLLAPSED_GRID = ("1e300", "1.0000000000000002e300", "3")


def test_collapsed_grid_override_names_its_field(tmp_path, basic_ini, capsys):
    code, out, err = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "x.csv",
        "--grid", ":".join(COLLAPSED_GRID),
    )
    assert code == EXIT_VALIDATION and out == ""
    issues = stderr_error(err)["issues"]
    assert [i["field"] for i in issues] == ["grid"]
    assert "not distinct" in issues[0]["message"]


def test_collapsed_grid_section_names_its_field(tmp_path, capsys):
    start, stop, count = COLLAPSED_GRID
    path = tmp_path / "collapsed.ini"
    path.write_text(BASIC + f"\n[grid]\nstart = {start}\nstop = {stop}\ncount = {count}\n")
    code, out, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION and out == ""
    issues = stderr_error(err)["issues"]
    assert [i["field"] for i in issues] == ["grid"]
    assert "not distinct" in issues[0]["message"]


def test_grid_count_above_cap_is_rejected_before_any_run(
    tmp_path, basic_ini, capsys, monkeypatch
):
    def fail(config):
        raise AssertionError("an over-cap grid reached run()")

    monkeypatch.setattr("kerrstokes.cli.run", fail)
    grid = f"0:1:{MAX_GRID_POINTS + 1}"
    code, out, err = run_cli(
        capsys, "run", "--config", basic_ini, "--out", tmp_path / "x.csv", "--grid", grid
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    issues = stderr_error(err)["issues"]
    assert [i["field"] for i in issues] == ["grid"]
    assert str(MAX_GRID_POINTS) in issues[0]["message"]


def test_overflowing_stokes_averages_map_to_validation_exit(tmp_path, capsys):
    # two coherent pulses at n0 = 1e308: s0 = n1 + n2 overflows, which must
    # not reach the stdout JSON as Infinity or NaN
    path = tmp_path / "huge.ini"
    path.write_text(
        "[scenario]\nkind = two_sq\n\n[pulse1]\nn0 = 1e308\ngamma = 0\n\n"
        "[pulse2]\nn0 = 1e308\ngamma = 0\n"
    )
    code, out, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION
    assert out == ""
    error = stderr_error(err)
    assert error["code"] == "validation"
    assert [i["field"] for i in error["issues"]] == ["scenario"]
    assert "not finite" in error["issues"][0]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_figure_with_strong_coupling_keeps_stderr_empty(tmp_path):
    # figure 8 uses gamma = 0.45, beyond the weak-coupling limit; a fresh
    # interpreter shows whether any warning reaches the console
    src = Path(kerrstokes.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "kerrstokes", "figure", "--figure-id", "8", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["files"] == ["fig8_a.csv", "fig8_b.csv"]


def test_gaussian_duration_underflow_maps_to_validation_exit(tmp_path, capsys):
    path = tmp_path / "short.ini"
    path.write_text(BASIC.replace("n0 = 100", "n0 = 100\nenvelope = gaussian\ntau_p = 1e-200"))
    code, out, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "pulse2.tau_p" in [i["field"] for i in stderr_error(err)["issues"]]


def test_tau_p_on_constant_envelope_maps_to_validation_exit(tmp_path, capsys):
    path = tmp_path / "flat.ini"
    path.write_text(BASIC.replace("gamma = 0.005", "gamma = 0.005\ntau_p = 2.0"))
    code, out, err = run_cli(capsys, "run", "--config", path, "--out", tmp_path / "x.csv")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert not (tmp_path / "x.csv").exists()
    assert [i["field"] for i in stderr_error(err)["issues"]] == ["pulse2.tau_p"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_relaxation_time_changes_no_run_output(tmp_path, capsys, fmt):
    """The grid and omega0 are reduced frequencies Omega = omega * tau_r, so
    run() never reads [medium]: tau_r changes neither the file nor the bundle."""
    path, out = tmp_path / "medium.ini", tmp_path / f"spec.{fmt}"
    outputs = []
    for tau_r in ("0.5", "2.0"):
        path.write_text(f"{BASIC}\n[medium]\ntau_r = {tau_r}\n")
        code, bundle, _ = run_cli(capsys, "run", "--config", path, "--out", out, "--format", fmt)
        assert code == EXIT_OK
        outputs.append((out.read_bytes(), bundle))
    assert outputs[0] == outputs[1]


def test_denormal_normalization_maps_to_validation_exit(tmp_path, capsys):
    # S - 1 divided by 1e-310 overflows to -inf, which must reach neither
    # the CSV nor the JSON document
    path = tmp_path / "tiny.ini"
    path.write_text(BASIC.replace("omega0 = 0.0", "omega0 = 0.0\nnormalization = 1e-310"))
    for fmt in ("csv", "json"):
        out_path = tmp_path / f"x.{fmt}"
        code, out, err = run_cli(
            capsys, "run", "--config", path, "--out", out_path, "--format", fmt
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "not finite" in stderr_error(err)["issues"][0]["message"]
        assert not out_path.exists()
