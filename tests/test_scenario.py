"""Scenario configuration, validation and the end-to-end run pipeline."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from kerrstokes import cli, optimize, oracle, scenario, spectra, verify
from kerrstokes.errors import ApproximationWarning, ConfigValidationError, ScenarioContractError
from kerrstokes.kernel import RelaxationKernel
from kerrstokes.optimize import (
    AGREEMENT_TOL,
    BS_INPUT_OFFSET,
    BS_PROBE_OFFSET,
    SINGLE_PORT_OFFSET,
    optimal_phase_bs_s01,
    optimal_phase_bs_s2,
    optimal_phase_coh_sq,
    optimal_phase_two_sq,
    optimal_phase_xpm,
)
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
from kerrstokes.spectra import (
    StokesIndex,
    kernel_bs_s01,
    kernel_bs_s2,
    kernel_coh_sq,
    kernel_two_sq,
    kernel_xpm,
    spectrum,
)
from kerrstokes.stokes import averages_bs, averages_coh_sq, averages_two_sq, averages_xpm

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
        # checked before the grid is built: no array above the cap is ever allocated
        assert OmegaGrid(count=MAX_GRID_POINTS).count == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="count must be an integer in"):
            OmegaGrid(count=MAX_GRID_POINTS + 1)

    def test_omega_grid_points_must_be_distinct(self):
        # the three points of [1e300, nextafter(1e300)] round onto one double
        with pytest.raises(ValueError, match="not distinct in double precision"):
            OmegaGrid(1e300, 1.0000000000000002e300, 3)
        # the same span holds two points, and a step of 5 ulps keeps them apart
        assert OmegaGrid(1e300, 1.0000000000000002e300, 2).to_array().size == 2
        stop = 1e300 + 5 * 4 * math.ulp(1e300)
        grid = OmegaGrid(1e300, stop, 5).to_array()
        assert (grid[1:] > grid[:-1]).all()

    def test_omega_grid_to_array(self):
        grid = OmegaGrid(0.0, 2.0, 5)
        np.testing.assert_array_equal(grid.to_array(), np.linspace(0.0, 2.0, 5))
        # built once and shared by every run: the same read-only array on each call
        assert grid.to_array() is grid.to_array()
        assert not grid.to_array().flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.to_array()[0] = 1.0
        assert run(config(omega_grid=grid)).spectrum.omega is grid.to_array()
        assert grid == OmegaGrid(0.0, 2.0, 5) and "_grid" not in repr(grid)

    def test_config_type_checks(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="coh_sq", pulses=(COH, KERR), medium=MEDIUM)
        with pytest.raises(ValueError):
            config(pulses=(COH, "not a pulse"))
        with pytest.raises(ValueError):
            config(stokes_index="S2")
        for field in ("medium", "omega_grid", "beamsplitter"):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                dataclasses.replace(config(), **{field: "wrong type"})
        with pytest.raises(ValueError, match="^envelope must be an Envelope"):
            PulseSpec(n0=1.0, envelope="gaussian")
        with pytest.raises(ValueError, match="^shape must be an EnvelopeShape"):
            Envelope("gaussian", 1.0)

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


def test_api_and_validation_state_each_contract_in_one_text():
    """The library raises (or warns) the text that validation reports."""
    kerr1 = config(pulses=(PulseSpec(n0=1.0, gamma=0.01), KERR))
    with pytest.raises(ScenarioContractError) as raised:
        averages_coh_sq(*kerr1.pulses, t=0.0)
    assert [(i.field, i.message) for i in collect_issues(kerr1)[0]] == [
        ("pulse1.gamma", str(raised.value))
    ]
    lossy = bs_config(beamsplitter=BeamSplitter(0.6, 0.5))
    with pytest.raises(ScenarioContractError) as raised:
        averages_bs(*lossy.pulses, lossy.beamsplitter, t=0.0)
    assert [(i.field, i.message) for i in collect_issues(lossy)[0]] == [
        ("beamsplitter", str(raised.value))
    ]
    with pytest.warns(ApproximationWarning) as warned:
        strong = PulseSpec(n0=1.0, gamma=0.3, gamma_x=0.2)
    issues = collect_issues(config(kind=ScenarioKind.XPM, pulses=(KERR, strong)))[1]
    assert [str(w.message) for w in warned] == [
        f"{i.field.removeprefix('pulse2.')}: {i.message}" for i in issues
    ]


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
        two_sq = tuple(
            PulseSpec(n0=u(10.0, 300.0), gamma=0.0 if dark else u(0.001, 0.01), phi_lin=phase())
            for _ in range(2)
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
            yield "two_sq", ScenarioKind.TWO_SQ, two_sq, None, index
            yield "xpm", ScenarioKind.XPM, xpm, None, index
            yield "bs_s2", ScenarioKind.BS_INTERF, bs_s2, splitters[1], index
        for index in (StokesIndex.S0, StokesIndex.S1):
            yield "bs_s01", ScenarioKind.BS_INTERF, bs_s01, splitters[0], index


# family -> its public kernel builder, optimizer, averages and offset record
_PUBLIC = {
    "coh_sq": (kernel_coh_sq, optimal_phase_coh_sq, averages_coh_sq, SINGLE_PORT_OFFSET),
    "two_sq": (kernel_two_sq, optimal_phase_two_sq, averages_two_sq, SINGLE_PORT_OFFSET),
    "xpm": (kernel_xpm, optimal_phase_xpm, averages_xpm, SINGLE_PORT_OFFSET),
    "bs_s01": (kernel_bs_s01, optimal_phase_bs_s01, averages_bs, BS_INPUT_OFFSET),
    "bs_s2": (kernel_bs_s2, optimal_phase_bs_s2, averages_bs, BS_PROBE_OFFSET),
}


def _public_args(family, pulses, bs):
    """The leading arguments of the public kernel builder and optimizer of ``family``."""
    if family == "bs_s01":
        return (*pulses[:2], bs)
    return pulses if bs is None else (*pulses, bs)


def test_run_applies_the_offset_its_optimizer_scanned():
    """run() moves the pulse the optimizer's offset record names, so S at
    Omega0 is the optimum it reports.

    With no closed phase (degenerate, arccos-domain) the scanned phase is
    applied and S(Omega0) equals the scanned minimum bit for bit.  Otherwise
    S(Omega0) sits above the scanned minimum exactly when the optimizer says
    so.  The single-port and S0/S1 closed forms are exact minima, so they
    never carry that flag: a record with the wrong anchor or sign moves the
    scan and the applied phase away from the closed form's convention.

    Each run, with and without Omega0, is also the public route bit for bit:
    its optimum is ``optimal_phase_<kind>``, its spectrum that of
    ``kernel_<kind>`` and its summary that of ``averages_<kind>``
    (``averages_bs`` on all three pulses and the splitter), both on the
    pulses the offset moved (or on the configured ones)."""
    rng = np.random.default_rng(2024)
    routes = {}
    for family, kind, pulses, bs, index in _offset_draws(rng, 20):
        kernel, optimal_phase, averages, offset = _PUBLIC[family]
        for omega0 in (float(rng.uniform(0.0, 3.0)), None):
            start = 0.5 if omega0 is None else omega0
            cfg = config(
                kind=kind, pulses=pulses, beamsplitter=bs, stokes_index=index, omega0=omega0,
                omega_grid=OmegaGrid(start, start + 1.0, 2), normalization=1.0,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # strong couplings, xpm without gamma_x
                result = run(cfg)
            moved = pulses
            if omega0 is None:
                assert result.optimum is None
            else:
                opt = result.optimum
                lead = _public_args(family, pulses, bs)
                assert repr(opt) == repr(optimal_phase(*lead, 0.0, omega0, index))
                closed = math.isfinite(opt.delta_phi_opt)
                moved = offset.apply(pulses, opt.delta_phi_opt if closed else opt.delta_phi_numeric)
            kern = kernel(*_public_args(family, moved, bs), 0.0, index)
            expected = spectrum(kern, cfg.omega_grid.to_array(), 1.0)
            for name in ("omega", "values", "normalized"):
                got, want = getattr(result.spectrum, name), getattr(expected, name)
                assert got.tobytes() == want.tobytes(), (family, index, omega0, name)
            summary = averages(*moved, 0.0) if bs is None else averages(*moved, bs, 0.0)
            assert repr(result.summary) == repr(summary), (family, index, omega0)
            if omega0 is None:
                continue
            at_omega0 = result.spectrum.values[0]
            scanned = "degenerate" in opt.flags or "arccos-domain" in opt.flags
            routes.setdefault(family, set()).add(scanned)
            if scanned:
                assert at_omega0 == opt.s_min_numeric, (family, index, opt)
            else:
                above = at_omega0 > opt.s_min_numeric + AGREEMENT_TOL
                assert ("closed-phase-not-minimal" in opt.flags) == above, (family, index, opt)
            if family != "bs_s2":
                assert "closed-phase-not-minimal" not in opt.flags, (family, index, opt)
    assert routes == dict.fromkeys(_PUBLIC, {False, True})


_LOCKED = (  # equal SPM phases, inputs in quadrature: the beam-splitter S2/S3 contract
    PulseSpec(n0=100.0, gamma=0.005, phi_lin=math.pi / 2),
    PulseSpec(n0=100.0, gamma=0.005),
    PulseSpec(n0=50.0, phi_lin=0.3),
)


_RUNS = {
    "coh_sq": config(),
    "two_sq": config(kind=ScenarioKind.TWO_SQ, pulses=(KERR, KERR), stokes_index=StokesIndex.S3),
    "xpm": config(kind=ScenarioKind.XPM, pulses=(KERR, PulseSpec(n0=50.0, gamma_x=0.002))),
    "bs_s01": bs_config(stokes_index=StokesIndex.S1),
    "bs_s2": bs_config(pulses=_LOCKED, stokes_index=StokesIndex.S2),
}


def _each_run(test):
    """Run ``test`` on every entry of _RUNS, with and without omega0."""
    test = pytest.mark.parametrize("name", list(_RUNS))(test)
    return pytest.mark.parametrize("omega0", [0.7, None])(test)


def _run(name, omega0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # xpm with one cross coupling
        return run(dataclasses.replace(_RUNS[name], omega0=omega0))


@_each_run
def test_run_builds_one_family(name, omega0, monkeypatch):
    """run() builds its kernel family once: the optimizer scans it and the
    kernel is that family at the applied phase.  Every module that binds a
    family function gets the counting wrapper."""
    builds = []
    for family in ("single_port_family", "bs_s01_family", "bs_s2_family"):

        def counted(*args, _original=getattr(spectra, family), **kwargs):
            builds.append(_original.__name__)
            return _original(*args, **kwargs)

        for module in (spectra, optimize):
            monkeypatch.setattr(module, family, counted)
    result = _run(name, omega0)
    assert len(builds) == 1, builds
    assert (result.optimum is None) == (omega0 is None)


# Envelope evaluations per run(), (with omega0, without): one per pulse.  run()
# evaluates each pulse once into a record, and every consumer reads those
# records: validation (default reference and beam-splitter contract), the
# problem (family, closed form and contract), the applied offset, the
# spectrum's reference and the averages.
_AMPLITUDE_CALLS = {
    "coh_sq": (2, 2), "two_sq": (2, 2), "xpm": (2, 2), "bs_s01": (3, 3), "bs_s2": (3, 3)
}


@_each_run
def test_run_evaluates_each_envelope_once_per_consumer(name, omega0, monkeypatch):
    calls = []
    amplitude = Envelope.amplitude

    def counted(envelope, t):
        calls.append(t)
        return amplitude(envelope, t)

    monkeypatch.setattr(Envelope, "amplitude", counted)
    _run(name, omega0)
    assert len(calls) == _AMPLITUDE_CALLS[name][omega0 is None], calls


@_each_run
def test_beam_splitter_contract_is_evaluated_only_for_an_optimum(name, omega0, monkeypatch):
    """Validation and the optimizer each check the contract once when omega0
    is set; without it nothing reads the contract, so nothing computes it."""
    checks = []
    original = optimize._bs_contract_issues

    def counted(*args):
        checks.append(args)
        return original(*args)

    for module in (optimize, scenario):
        monkeypatch.setattr(module, "_bs_contract_issues", counted)
    _run(name, omega0)
    assert len(checks) == (2 if name.startswith("bs") and omega0 is not None else 0), checks


def test_overflowing_stokes_averages_raise_value_error():
    # coh_sq with pulse 2 at n0 = 1e308: s0 to s3 stay finite, only the
    # Poincare radius sqrt(s1^2 + s2^2 + s3^2) overflows
    huge = PulseSpec(n0=1e308)
    with pytest.raises(ValueError, match="poincare_radius is not finite"):
        run(config(pulses=(COH, huge)))


_ALL = tuple(StokesIndex)
_S01 = (StokesIndex.S0, StokesIndex.S1)
_S23 = (StokesIndex.S2, StokesIndex.S3)

# The public functions of the kinds without cross coupling: name -> (the Stokes
# components it takes, None for the averages; a call on pulses by role, a
# splitter, t, Omega0 and the component).
_WITHOUT_XPM = {
    "kernel_coh_sq": (_ALL, lambda p, bs, t, w, i: kernel_coh_sq(p["coh"], p["kerr2"], t, i)),
    "kernel_two_sq": (_ALL, lambda p, bs, t, w, i: kernel_two_sq(p["kerr1"], p["kerr2"], t, i)),
    "kernel_bs_s01": (
        _S01, lambda p, bs, t, w, i: kernel_bs_s01(p["kerr1"], p["kerr2"], bs, t, i)
    ),
    "kernel_bs_s2": (
        _S23, lambda p, bs, t, w, i: kernel_bs_s2(p["kerr1"], p["kerr2"], p["probe"], bs, t, i)
    ),
    "optimal_phase_coh_sq": (
        _ALL, lambda p, bs, t, w, i: optimal_phase_coh_sq(p["coh"], p["kerr2"], t, w, i)
    ),
    "optimal_phase_two_sq": (
        _ALL, lambda p, bs, t, w, i: optimal_phase_two_sq(p["kerr1"], p["kerr2"], t, w, i)
    ),
    "optimal_phase_bs_s01": (
        _S01,
        lambda p, bs, t, w, i: optimal_phase_bs_s01(p["balanced1"], p["balanced2"], bs, t, w, i),
    ),
    "optimal_phase_bs_s2": (
        _S23,
        lambda p, bs, t, w, i: optimal_phase_bs_s2(
            p["locked1"], p["locked2"], p["probe"], bs, t, w, i
        ),
    ),
    "averages_coh_sq": ((None,), lambda p, bs, t, w, i: averages_coh_sq(p["coh"], p["kerr2"], t)),
    "averages_two_sq": (
        (None,), lambda p, bs, t, w, i: averages_two_sq(p["kerr1"], p["kerr2"], t)
    ),
    "averages_bs": (
        (None,), lambda p, bs, t, w, i: averages_bs(p["kerr1"], p["kerr2"], p["probe"], bs, t)
    ),
}


def _roles(rng):
    """Seeded pulses by role, all with gamma_x = 0: the beam-splitter optimizers
    get pulses on their contracts (equal couplings for S0/S1; equal SPM phases
    and inputs in quadrature for S2/S3)."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def kerr(gamma):
        shape = list(EnvelopeShape)[int(rng.integers(3))]
        envelope = Envelope() if shape is EnvelopeShape.CONSTANT else Envelope(shape, u(0.5, 2.0))
        return PulseSpec(u(1.0, 300.0), envelope, gamma, phi_lin=u(0.0, 2.0 * math.pi))

    gamma = u(0.001, 0.02)
    locked = kerr(gamma)
    return {
        "coh": kerr(0.0),
        "kerr1": kerr(u(0.001, 0.02)),
        "kerr2": kerr(u(0.001, 0.02)),
        "probe": kerr(0.0),
        "balanced1": kerr(gamma),
        "balanced2": kerr(gamma),
        "locked1": locked.with_phase(locked.phi_lin + 0.5 * math.pi),
        "locked2": locked,
    }


@pytest.mark.parametrize(
    ("name", "index"),
    [(name, index) for name, (indices, _) in _WITHOUT_XPM.items() for index in indices],
)
def test_gamma_x_is_ignored_outside_xpm(name, index):
    """Cross coupling only participates in xpm: validation rejects gamma_x
    elsewhere, and each public function of another kind, called directly,
    ignores it.  With gamma_x drawn on every pulse it gives the bits of the
    same call with gamma_x = 0."""
    _, call = _WITHOUT_XPM[name]
    rng = np.random.default_rng(25)
    for _ in range(6):
        plain = _roles(rng)
        crossed = {
            role: dataclasses.replace(p, gamma_x=float(rng.uniform(0.001, 0.03)))
            for role, p in plain.items()
        }
        r = float(rng.uniform(0.2, 0.8))
        args = BeamSplitter(r, 1.0 - r), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0))
        assert repr(call(crossed, *args, index)) == repr(call(plain, *args, index)), args


def _zero_config(kind, zero):
    """A config of ``kind`` with ``zero`` in omega0 and in every pulse number that may be 0."""

    def pulse(n0, gamma=zero, gamma_x=zero):
        return PulseSpec(n0, gamma=gamma, gamma_x=gamma_x, phi_lin=zero)

    if kind is ScenarioKind.BS_INTERF:
        return bs_config(pulses=(pulse(1.0, 0.02), pulse(1.5, 0.02), pulse(zero)), omega0=zero)
    pulses = {
        ScenarioKind.COH_SQ: (pulse(1.0), pulse(100.0, 0.005)),
        ScenarioKind.TWO_SQ: (pulse(50.0, 0.004), pulse(100.0, 0.005)),
        ScenarioKind.XPM: (pulse(50.0, 0.004, 0.002), pulse(100.0, 0.005)),
    }[kind]
    return config(kind, pulses, omega0=zero)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda kind: kind.value)
def test_negative_zero_inputs_give_the_outputs_of_positive_zero(kind):
    """A -0.0 is stored as +0.0, so the sign of an exact-zero output (an echoed
    omega0, a vanishing Stokes average) does not depend on how a zero was written."""
    outputs = []
    for zero in (-0.0, 0.0):
        result = run(_zero_config(kind, zero))
        series = result.spectrum
        columns = (series.omega, series.values, series.normalized)
        payload = json.dumps(cli._run_payload(result), sort_keys=True)
        outputs.append((payload, b"".join(c.tobytes() for c in columns)))
    assert outputs[0] == outputs[1]
    assert math.copysign(1.0, KERR.with_phase(-0.0).phi_lin) == 1.0


# Every site that checks a finite number, each handed a bool: Python makes
# True an int, and each of these accepted it as 1 before the check refused it.
BOOL_AS_NUMBER = {
    "RelaxationKernel.tau_r": lambda: RelaxationKernel(True),
    "Envelope.tau_p": lambda: Envelope(EnvelopeShape.GAUSSIAN, True),
    "PulseSpec.n0": lambda: PulseSpec(True),
    "PulseSpec.gamma": lambda: PulseSpec(1.0, gamma=True),
    "PulseSpec.gamma_x": lambda: PulseSpec(1.0, gamma_x=True),
    "PulseSpec.phi_lin": lambda: PulseSpec(1.0, phi_lin=True),
    "PulseSpec.with_phase": lambda: KERR.with_phase(True),
    "BeamSplitter.r": lambda: BeamSplitter(True, 0.5),
    "OmegaGrid.start": lambda: OmegaGrid(True, 5.0),
    "OmegaGrid.stop": lambda: OmegaGrid(0.0, True),
    "ScenarioConfig.analysis_time": lambda: config(analysis_time=True),
    "ScenarioConfig.omega0": lambda: config(omega0=True),
    "ScenarioConfig.normalization": lambda: config(normalization=True),
    "CorrelationKernel.a_h": lambda: spectra.CorrelationKernel(True, 0.0),
    "spectrum.reference_intensity": lambda: spectrum(
        spectra.CorrelationKernel(0.0, 0.0), [0.0, 1.0], reference_intensity=True
    ),
    "optimize.omega0": lambda: optimal_phase_coh_sq(COH, KERR, 0.0, True),
    "scan_phase.omega0": lambda: optimize.scan_phase(lambda phase: (0.0, 0.0), True),
    "wk_numeric.omega": lambda: oracle.wk_numeric(
        spectra.CorrelationKernel(0.0, 0.0), MEDIUM, True
    ),
    "run_checks.tau_r_mismatch": lambda: verify.run_checks(True),
}


@pytest.mark.parametrize("build", BOOL_AS_NUMBER.values(), ids=BOOL_AS_NUMBER.keys())
def test_a_bool_is_not_a_number(build):
    # each site raises its own message, which echoes the value
    with pytest.raises(ValueError, match=r", got True$"):
        build()


def test_run_checks_refuses_a_string_with_a_value_error():
    # math.isfinite("1") raised TypeError, although run_checks promises ValueError
    with pytest.raises(ValueError, match="tau_r_mismatch must be a finite number > 0"):
        verify.run_checks("1")
