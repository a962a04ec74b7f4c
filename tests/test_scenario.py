"""Scenario configuration, validation and the end-to-end run pipeline."""

import math
import warnings

import numpy as np
import pytest

from kerrstokes.errors import ConfigValidationError
from kerrstokes.kernel import RelaxationKernel
from kerrstokes.optimize import AGREEMENT_TOL
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


def _offset_draws(rng, count):
    """(family, kind, pulses, beam splitter, Stokes index) of random scenarios,
    two components each; every fifth draw has no Kerr coupling or a dark
    probe, so its spectrum is flat and its optimum degenerate."""

    def u(low, high):
        return float(rng.uniform(low, high))

    def phase():
        return u(0.0, 2.0 * math.pi)

    for i in range(count):
        dark = i % 5 == 0
        coh_sq = (
            PulseSpec(n0=u(0.2, 5.0), phi_lin=phase()),
            PulseSpec(n0=u(10.0, 200.0), gamma=0.0 if dark else u(0.001, 0.01), phi_lin=phase()),
        )
        xpm = tuple(
            PulseSpec(
                n0=u(10.0, 300.0), gamma=0.0 if dark else u(0.001, 0.01),
                gamma_x=0.0 if dark else u(0.0005, 0.005), phi_lin=phase(),
            )
            for _ in range(2)
        )
        n1 = u(50.0, 200.0)
        gamma = 0.0 if dark else u(1.0, 3.0) / (2.0 * n1)  # equal gammas: balanced
        bs_s01 = (
            PulseSpec(n0=n1, gamma=gamma, phi_lin=phase()),
            PulseSpec(n0=n1 * u(0.5, 2.0), gamma=gamma, phi_lin=phase()),
            PulseSpec(n0=u(0.0, 5.0)),
        )
        phi, base, na, nb = u(0.3, 2.5), phase(), u(50.0, 200.0), u(50.0, 200.0)
        bs_s2 = (  # equal SPM phases, locked in quadrature
            PulseSpec(n0=na, gamma=phi / (2.0 * na), phi_lin=base + 0.5 * math.pi),
            PulseSpec(n0=nb, gamma=phi / (2.0 * nb), phi_lin=base),
            PulseSpec(n0=0.0 if dark else u(50.0, 200.0), phi_lin=phase()),
        )
        splitters = [BeamSplitter(r, 1.0 - r) for r in (u(0.25, 0.75), u(0.25, 0.75))]
        for index in (StokesIndex.S2, StokesIndex.S3):
            yield "coh_sq", ScenarioKind.COH_SQ, coh_sq, None, index
            yield "xpm", ScenarioKind.XPM, xpm, None, index
            yield "bs_s2", ScenarioKind.BS_INTERF, bs_s2, splitters[1], index
        for index in (StokesIndex.S0, StokesIndex.S1):
            yield "bs_s01", ScenarioKind.BS_INTERF, bs_s01, splitters[0], index


def test_run_applies_the_offset_its_optimizer_scanned():
    """run() moves the pulse the optimizer's offset record names, so S at
    Omega0 is the optimum it reports.

    With no closed phase (degenerate, arccos-domain) the scanned phase is
    applied and S(Omega0) equals the scanned minimum bit for bit.  Otherwise
    S(Omega0) sits above the scanned minimum exactly when the optimizer says
    so.  The single-port and S0/S1 closed forms are exact minima, so they
    never carry that flag: a record with the wrong anchor or sign moves the
    scan and the applied phase away from the closed form's convention."""
    rng = np.random.default_rng(2024)
    routes = {}
    for family, kind, pulses, bs, index in _offset_draws(rng, 20):
        omega0 = float(rng.uniform(0.0, 3.0))
        cfg = config(
            kind=kind, pulses=pulses, beamsplitter=bs, stokes_index=index, omega0=omega0,
            omega_grid=OmegaGrid(omega0, omega0 + 1.0, 2), normalization=1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # strong couplings, xpm without gamma_x
            result = run(cfg)
        opt, at_omega0 = result.optimum, result.spectrum.values[0]
        scanned = "degenerate" in opt.flags or "arccos-domain" in opt.flags
        routes.setdefault(family, set()).add(scanned)
        if scanned:
            assert at_omega0 == opt.s_min_numeric, (family, index, opt)
        else:
            above = at_omega0 > opt.s_min_numeric + AGREEMENT_TOL
            assert ("closed-phase-not-minimal" in opt.flags) == above, (family, index, opt)
        if family != "bs_s2":
            assert "closed-phase-not-minimal" not in opt.flags, (family, index, opt)
    assert routes == dict.fromkeys(("coh_sq", "xpm", "bs_s2", "bs_s01"), {False, True})


def test_overflowing_stokes_averages_raise_value_error():
    # coh_sq with pulse 2 at n0 = 1e308: s0 to s3 stay finite, only the
    # Poincare radius sqrt(s1^2 + s2^2 + s3^2) overflows
    huge = PulseSpec(n0=1e308)
    with pytest.raises(ValueError, match="poincare_radius is not finite"):
        run(config(pulses=(COH, huge)))
