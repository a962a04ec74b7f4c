"""Scenario configuration, validation and the end-to-end run pipeline."""

import math
import warnings

import numpy as np
import pytest

from kerrstokes.errors import ConfigValidationError
from kerrstokes.kernel import RelaxationKernel
from kerrstokes.pulse import Envelope, EnvelopeShape, PulseSpec
from kerrstokes.scenario import (
    MAX_GRID_POINTS,
    BeamSplitter,
    OmegaGrid,
    ScenarioConfig,
    ScenarioKind,
    ValidationWarning,
    collect_issues,
    run,
    validate,
)
from kerrstokes.spectra import StokesIndex

MEDIUM = RelaxationKernel(1.0)
COH = PulseSpec(n0=1.0)
KERR = PulseSpec(n0=100.0, gamma=0.005)


def config(kind=ScenarioKind.COH_SQ, pulses=(COH, KERR), **kwargs):
    return ScenarioConfig(kind=kind, pulses=pulses, medium=MEDIUM, **kwargs)


def bs_config(**kwargs):
    defaults = dict(
        kind=ScenarioKind.BS_INTERF,
        pulses=(PulseSpec(n0=1.0, gamma=0.02), PulseSpec(n0=1.5, gamma=0.02), COH),
        medium=MEDIUM,
        beamsplitter=BeamSplitter(0.5, 0.5),
        stokes_index=StokesIndex.S0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def error_fields(cfg):
    errors, _ = collect_issues(cfg)
    return [issue.field for issue in errors]


def warning_fields(cfg):
    _, warns = collect_issues(cfg)
    return [issue.field for issue in warns]


class TestBuildingBlocks:
    def test_beamsplitter_bounds(self):
        with pytest.raises(ValueError):
            BeamSplitter(-0.1, 0.5)
        with pytest.raises(ValueError):
            BeamSplitter(0.5, 1.2)
        # an unbalanced but in-range splitter is constructible; validation
        # reports it as a scenario issue instead of refusing the object
        BeamSplitter(0.6, 0.5)

    def test_omega_grid_validation(self):
        with pytest.raises(ValueError):
            OmegaGrid(start=-1.0)
        with pytest.raises(ValueError):
            OmegaGrid(start=2.0, stop=1.0)
        with pytest.raises(ValueError):
            OmegaGrid(count=1)

    def test_omega_grid_count_is_capped(self):
        # checked on construction: no array of that size is ever built
        assert OmegaGrid(count=MAX_GRID_POINTS).count == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="count must be an integer in"):
            OmegaGrid(count=MAX_GRID_POINTS + 1)

    def test_omega_grid_to_array(self):
        grid = OmegaGrid(0.0, 2.0, 5)
        np.testing.assert_array_equal(grid.to_array(), np.linspace(0.0, 2.0, 5))

    def test_config_type_checks(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="coh_sq", pulses=(COH, KERR), medium=MEDIUM)
        with pytest.raises(ValueError):
            config(pulses=(COH, "not a pulse"))
        with pytest.raises(ValueError):
            config(stokes_index="S2")

    def test_pulse_sequence_coerced_to_tuple(self):
        cfg = config(pulses=[COH, KERR])
        assert isinstance(cfg.pulses, tuple)


class TestIssueCollection:
    def test_wrong_pulse_count(self):
        assert error_fields(config(pulses=(COH, KERR, COH))) == ["pulses"]

    def test_coh_sq_needs_coherent_first_pulse(self):
        cfg = config(pulses=(PulseSpec(n0=1.0, gamma=0.01), KERR))
        assert "pulse1.gamma" in error_fields(cfg)

    def test_bs_needs_a_beamsplitter(self):
        assert "beamsplitter" in error_fields(bs_config(beamsplitter=None))

    def test_single_port_rejects_beamsplitter(self):
        cfg = config(beamsplitter=BeamSplitter(0.5, 0.5))
        assert "beamsplitter" in error_fields(cfg)

    def test_unbalanced_splitter_reported(self):
        cfg = bs_config(beamsplitter=BeamSplitter(0.6, 0.5))
        assert "beamsplitter" in error_fields(cfg)

    def test_kerr_probe_reported(self):
        bad = bs_config(
            pulses=(
                PulseSpec(n0=1.0, gamma=0.02),
                PulseSpec(n0=1.5, gamma=0.02),
                PulseSpec(n0=1.0, gamma=0.01),
            )
        )
        assert "pulse3.gamma" in error_fields(bad)

    def test_cross_coupling_confined_to_xpm(self):
        cfg = config(pulses=(COH, PulseSpec(n0=10.0, gamma=0.01, gamma_x=0.02)))
        assert "pulse2.gamma_x" in error_fields(cfg)
        ok = config(
            kind=ScenarioKind.XPM,
            pulses=(PulseSpec(n0=10.0, gamma=0.01, gamma_x=0.02), KERR),
        )
        assert error_fields(ok) == []

    def test_strong_coupling_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            strong = PulseSpec(n0=1.0, gamma=0.3)
        cfg = config(pulses=(COH, strong))
        assert "pulse2.gamma" in warning_fields(cfg)

    def test_xpm_without_cross_coupling_warns(self):
        cfg = config(kind=ScenarioKind.XPM, pulses=(KERR, KERR))
        assert "scenario.kind" in warning_fields(cfg)

    def test_omega0_and_normalization_ranges(self):
        assert "scenario.omega0" in error_fields(config(omega0=-0.5))
        assert "scenario.normalization" in error_fields(config(normalization=0.0))

    def test_vanishing_reference_needs_explicit_normalization(self):
        dark = config(pulses=(PulseSpec(n0=0.0), KERR))
        assert "scenario.normalization" in error_fields(dark)
        assert error_fields(config(pulses=(PulseSpec(n0=0.0), KERR), normalization=5.0)) == []

    def test_flat_index_optimization_warns(self):
        cfg = config(stokes_index=StokesIndex.S0, omega0=0.0)
        assert "scenario.stokes_index" in warning_fields(cfg)

    def test_bs_s01_balance_checked_when_optimizing(self):
        unbalanced = bs_config(
            pulses=(PulseSpec(n0=1.0, gamma=0.02), PulseSpec(n0=1.5, gamma=0.05), COH),
            omega0=0.0,
        )
        assert "pulses" in error_fields(unbalanced)
        balanced = bs_config(omega0=0.0)
        assert error_fields(balanced) == []

    def test_bs_s2_contracts_checked_when_optimizing(self):
        locked = (
            PulseSpec(n0=100.0, gamma=0.005, phi_lin=math.pi / 2),
            PulseSpec(n0=100.0, gamma=0.005),
            PulseSpec(n0=50.0),
        )
        good = bs_config(pulses=locked, stokes_index=StokesIndex.S2, omega0=0.0)
        assert error_fields(good) == []
        drifted = bs_config(
            pulses=(locked[0], PulseSpec(n0=100.0, gamma=0.005, phi_lin=0.1), locked[2]),
            stokes_index=StokesIndex.S2,
            omega0=0.0,
        )
        assert "pulses" in error_fields(drifted)


def test_validate_raises_with_all_issues():
    cfg = bs_config(beamsplitter=BeamSplitter(0.6, 0.5), omega0=-1.0)
    with pytest.raises(ConfigValidationError) as excinfo:
        validate(cfg)
    fields = [issue.field for issue in excinfo.value.issues]
    assert "beamsplitter" in fields and "scenario.omega0" in fields


def test_validate_emits_warnings_for_nonfatal_issues():
    cfg = config(kind=ScenarioKind.XPM, pulses=(KERR, KERR))
    with pytest.warns(ValidationWarning, match="two_sq"):
        validate(cfg)


class TestRun:
    def test_spectrum_attaches_reference_and_grid(self):
        result = run(config())
        assert result.spectrum.omega.shape == (512,)
        assert result.spectrum.reference_intensity == 1.0  # default: nbar of pulse 1
        np.testing.assert_array_equal(
            result.spectrum.normalized, result.spectrum.values - 1.0
        )

    def test_optimized_run_hits_closed_minimum_on_grid(self):
        result = run(config(omega0=0.0))
        opt = result.optimum
        assert opt is not None and opt.flags == ()
        assert result.spectrum.values[0] == pytest.approx(opt.s_min_closed, abs=1e-12)
        assert result.spectrum.values[0] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)

    def test_unoptimized_run_has_no_optimum(self):
        assert run(config()).optimum is None

    def test_degenerate_optimum_falls_back_to_scan_phase(self):
        cfg = config(pulses=(COH, PulseSpec(n0=5.0)), omega0=0.0)
        result = run(cfg)
        assert "degenerate" in result.optimum.flags
        assert np.all(result.spectrum.values == 1.0)

    def test_default_references_per_scenario(self):
        bs0 = run(bs_config())
        assert bs0.spectrum.reference_intensity == pytest.approx(2.5)
        locked = (
            PulseSpec(n0=100.0, gamma=0.005, phi_lin=math.pi / 2),
            PulseSpec(n0=100.0, gamma=0.005),
            PulseSpec(n0=50.0),
        )
        bs2 = run(bs_config(pulses=locked, stokes_index=StokesIndex.S2))
        assert bs2.spectrum.reference_intensity == pytest.approx(50.0)

    def test_explicit_normalization_wins(self):
        result = run(config(normalization=4.0))
        assert result.spectrum.reference_intensity == 4.0

    def test_s3_optimum_is_quarter_turn_from_s2(self):
        s2 = run(config(omega0=0.0, stokes_index=StokesIndex.S2)).optimum
        s3 = run(config(omega0=0.0, stokes_index=StokesIndex.S3)).optimum
        assert s3.delta_phi_opt == pytest.approx(s2.delta_phi_opt + math.pi / 2, abs=1e-12)
        assert s3.s_min_closed == pytest.approx(s2.s_min_closed, abs=1e-12)
        assert s3.s_min_numeric == pytest.approx(s2.s_min_numeric, abs=1e-9)

    def test_summary_matches_direct_averages(self):
        from kerrstokes.stokes import averages_coh_sq

        result = run(config())
        direct = averages_coh_sq(COH, KERR, 0.0)
        assert result.summary == direct

    def test_envelopes_evaluated_at_analysis_time(self):
        shaped = PulseSpec(
            n0=100.0, envelope=Envelope(EnvelopeShape.GAUSSIAN, tau_p=2.0), gamma=0.005
        )
        centered = run(config(pulses=(COH, shaped)))
        offset = run(config(pulses=(COH, shaped), analysis_time=1.0))
        assert offset.summary.s0 < centered.summary.s0

    def test_result_carries_the_collected_warnings(self):
        cfg = config(kind=ScenarioKind.XPM, pulses=(KERR, KERR))  # gamma_x = 0 warns
        with pytest.warns(ValidationWarning):
            result = run(cfg)
        assert result.warnings == tuple(collect_issues(cfg)[1])
        assert [w.field for w in result.warnings] == ["scenario.kind"]
        assert run(config()).warnings == ()

    @pytest.mark.parametrize("omega0", [0.0, None])
    @pytest.mark.parametrize(
        "envelope",
        [Envelope(), Envelope(EnvelopeShape.GAUSSIAN, tau_p=1.0)],
        ids=["constant", "gaussian"],
    )
    def test_kerr_phase_overflow_raises_value_error(self, envelope, omega0):
        # phi2 = 2 gamma n0 = 1e298 squares past the double range
        huge = PulseSpec(n0=1e300, envelope=envelope, gamma=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy reports the overflow it saturates
            with pytest.raises(ValueError, match="double precision|finite"):
                run(config(pulses=(COH, huge), omega0=omega0))


def test_overflowing_stokes_averages_raise_value_error():
    # coh_sq with pulse 2 at n0 = 1e308: s0 to s3 stay finite, only the
    # Poincare radius sqrt(s1^2 + s2^2 + s3^2) overflows
    huge = PulseSpec(n0=1e308)
    with pytest.raises(ValueError, match="poincare_radius is not finite"):
        run(config(pulses=(COH, huge)))
