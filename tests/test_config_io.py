"""INI config loading: defaults, folding rules and failure reporting."""

import math
from pathlib import Path

import pytest

from kerrstokes.config_io import dump_reference_path, load_config
from kerrstokes.errors import ConfigParseError, ConfigValidationError
from kerrstokes.scenario import MAX_GRID_POINTS, ScenarioKind
from kerrstokes.spectra import StokesIndex

GOOD = """\
[scenario]
kind = two_sq
stokes_index = S3
analysis_time = 0.5
omega0 = 1.0

[medium]
tau_r = 2.0

[grid]
start = 0
stop = 4
count = 128

[pulse1]
n0 = 10
gamma = 0.01
envelope = gaussian
tau_p = 3.0

[pulse2]
n0 = 20
gamma = 0.005
phi_lin = 0.25
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def issue_fields(excinfo):
    return [issue.field for issue in excinfo.value.issues]


def test_full_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.kind is ScenarioKind.TWO_SQ
    assert cfg.stokes_index is StokesIndex.S3
    assert cfg.analysis_time == 0.5
    assert cfg.omega0 == 1.0
    assert cfg.medium.tau_r == 2.0
    assert (cfg.omega_grid.start, cfg.omega_grid.stop, cfg.omega_grid.count) == (0.0, 4.0, 128)
    assert cfg.pulses[0].envelope.tau_p == 3.0
    assert cfg.pulses[1].phi_lin == 0.25


def test_defaults_fill_missing_sections(tmp_path):
    text = "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 50\ngamma = 0.01\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.medium.tau_r == 1.0
    assert (cfg.omega_grid.start, cfg.omega_grid.stop, cfg.omega_grid.count) == (0.0, 5.0, 512)
    assert cfg.omega0 is None and cfg.normalization is None


def test_inline_comments_are_stripped(tmp_path):
    text = (
        "[scenario]\nkind = coh_sq  # which overlap\n"
        "[pulse1]\nn0 = 1 ; probe\n[pulse2]\nn0 = 50\ngamma = 0.01\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.pulses[0].n0 == 1.0


def test_coupling_folded_from_beta_and_length(tmp_path):
    text = (
        "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\n"
        "[pulse2]\nn0 = 50\nbeta = 0.0004\nlength = 25\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.pulses[1].gamma == pytest.approx(0.0004 * 25)


def test_beta_without_length_is_an_error(tmp_path):
    text = "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 50\nbeta = 0.0004\n"
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "pulse2.beta" in issue_fields(excinfo)


def test_gamma_and_beta_together_rejected(tmp_path):
    text = (
        "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\n"
        "[pulse2]\nn0 = 50\ngamma = 0.01\nbeta = 0.0004\nlength = 25\n"
    )
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "pulse2.gamma" in issue_fields(excinfo)


def test_unknown_key_rejected_with_field_path(tmp_path):
    text = "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = 1\nchirp = 3\n[pulse2]\nn0 = 50\n"
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "pulse1.chirp" in issue_fields(excinfo)


def test_grid_count_above_cap_rejected(tmp_path):
    text = (
        f"[scenario]\nkind = coh_sq\n[grid]\ncount = {MAX_GRID_POINTS + 1}\n"
        "[pulse1]\nn0 = 1\n[pulse2]\nn0 = 50\n"
    )
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert issue_fields(excinfo) == ["grid"]


def test_unknown_section_rejected(tmp_path):
    text = "[scenario]\nkind = coh_sq\n[laser]\npower = 9\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 50\n"
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "laser" in issue_fields(excinfo)


def test_missing_scenario_section(tmp_path):
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, "[pulse1]\nn0 = 1\n"))
    assert "scenario" in issue_fields(excinfo)


def test_wrong_pulse_count_for_kind(tmp_path):
    text = "[scenario]\nkind = bs_interf\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 2\n[beamsplitter]\nr = 0.5\nt = 0.5\n"
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "pulses" in issue_fields(excinfo)


def test_beamsplitter_requires_both_coefficients(tmp_path):
    text = (
        "[scenario]\nkind = bs_interf\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 2\n"
        "[pulse3]\nn0 = 1\n[beamsplitter]\nr = 0.5\n"
    )
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    assert "beamsplitter.t" in issue_fields(excinfo)


def test_malformed_number_is_a_parse_error(tmp_path):
    text = "[scenario]\nkind = coh_sq\n[pulse1]\nn0 = one\n[pulse2]\nn0 = 50\n"
    with pytest.raises(ConfigParseError, match="pulse1.n0"):
        load_config(write(tmp_path, text))


def test_broken_ini_syntax_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "kind = coh_sq\nno section header"))


def test_unknown_kind_lists_choices(tmp_path):
    text = "[scenario]\nkind = warp\n[pulse1]\nn0 = 1\n[pulse2]\nn0 = 50\n"
    with pytest.raises(ConfigValidationError) as excinfo:
        load_config(write(tmp_path, text))
    (issue,) = [i for i in excinfo.value.issues if i.field == "scenario.kind"]
    assert "coh_sq" in issue.message


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.ini")


def test_reference_config_loads_and_validates():
    path = Path(dump_reference_path())
    assert path.is_file()
    cfg = load_config(path)
    assert cfg.kind is ScenarioKind.COH_SQ
    assert cfg.pulses[1].gamma == pytest.approx(0.005)
    assert cfg.omega0 == 0.0
