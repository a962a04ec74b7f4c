"""Closed-form phase optima against the scan route."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrstokes.errors import ScenarioContractError
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
    scan_phase,
)
from kerrstokes.pulse import Envelope, EnvelopeShape, PulseSpec
from kerrstokes.scenario import BeamSplitter
from kerrstokes.spectra import (
    StokesIndex,
    kernel_coh_sq,
    kernel_two_sq,
    kernel_xpm,
    single_port_family,
    spectrum_value,
)
from kerrstokes.verify import _draw_bs_s01

WEAK = st.floats(min_value=0.001, max_value=0.01)
INTENSITY = st.floats(min_value=0.5, max_value=200.0)
FREQ = st.floats(min_value=0.0, max_value=3.0)

COHERENT_UNIT = PulseSpec(n0=1.0)
KERR_UNIT_PHI = PulseSpec(n0=100.0, gamma=0.005)  # SPM phase exactly 1


def test_textbook_minimum_at_zero_frequency():
    opt = optimal_phase_coh_sq(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, omega0=0.0)
    assert opt.s_min_closed == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)
    assert opt.delta_phi_opt == pytest.approx(math.pi / 8.0 - 1.0, abs=1e-14)
    assert opt.agreement <= AGREEMENT_TOL
    assert opt.flags == ()


def test_textbook_minimum_at_unit_frequency():
    opt = optimal_phase_coh_sq(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, omega0=1.0)
    assert opt.s_min_closed == pytest.approx(1.5 - math.sqrt(1.25), abs=1e-14)
    assert opt.agreement <= AGREEMENT_TOL


def test_kernel_coefficients_at_the_optimum():
    opt = optimal_phase_coh_sq(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, omega0=0.0)
    shifted = SINGLE_PORT_OFFSET.apply((COHERENT_UNIT, KERR_UNIT_PHI), opt.delta_phi_opt)
    kern = kernel_coh_sq(*shifted, 0.0)
    assert kern.a_h == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-13)
    assert kern.b_g == pytest.approx((1.0 - 1.0 / math.sqrt(2.0)) / 2.0, abs=1e-13)
    assert spectrum_value(kern, 0.0) == pytest.approx(opt.s_min_closed, abs=1e-13)


def test_degenerate_optimum_without_kerr_noise():
    opt = optimal_phase_coh_sq(COHERENT_UNIT, PulseSpec(n0=5.0), 0.0, omega0=0.0)
    assert math.isnan(opt.delta_phi_opt)
    assert opt.s_min_closed == 1.0
    assert opt.s_min_numeric == pytest.approx(1.0, abs=1e-12)
    assert opt.flags == ("degenerate",)


def test_matched_pair_cannot_be_squeezed():
    """Equal intensities and couplings: the imbalance term vanishes and the
    closed minimum collapses to the shot-noise level exactly."""
    pulse = PulseSpec(n0=50.0, gamma=0.004)
    opt = optimal_phase_two_sq(pulse, pulse, 0.0, omega0=0.7)
    assert opt.s_min_closed == pytest.approx(1.0, abs=1e-12)
    assert abs(opt.s_min_numeric - 1.0) <= 1e-9


def test_two_sq_with_coherent_first_pulse_matches_coh_sq():
    p2 = PulseSpec(n0=30.0, gamma=0.01, phi_lin=0.9)
    a = optimal_phase_coh_sq(COHERENT_UNIT, p2, 0.0, omega0=0.5)
    b = optimal_phase_two_sq(COHERENT_UNIT, p2, 0.0, omega0=0.5)
    assert b.s_min_closed == pytest.approx(a.s_min_closed, abs=1e-12)
    assert b.delta_phi_opt == pytest.approx(a.delta_phi_opt, abs=1e-12)


def test_xpm_offset_accounts_for_cross_phases():
    p1 = PulseSpec(n0=20.0, gamma=0.01, gamma_x=0.004)
    p2 = PulseSpec(n0=20.0, gamma=0.01, gamma_x=0.004)
    opt = optimal_phase_xpm(p1, p2, 0.0, omega0=0.0)
    # matched pair again: D = 0, minimum pinned at shot noise
    assert opt.s_min_closed == pytest.approx(1.0, abs=1e-12)
    assert opt.agreement <= AGREEMENT_TOL


@settings(max_examples=20, deadline=None)
@given(n1=INTENSITY, n2=INTENSITY, g1=WEAK, g2=WEAK, omega0=FREQ)
def test_two_sq_scan_never_beats_closed_form(n1, n2, g1, g2, omega0):
    p1 = PulseSpec(n0=n1, gamma=g1)
    p2 = PulseSpec(n0=n2, gamma=g2, phi_lin=0.77)
    opt = optimal_phase_two_sq(p1, p2, 0.0, omega0=omega0)
    assert opt.s_min_numeric <= opt.s_min_closed + AGREEMENT_TOL
    assert opt.agreement <= AGREEMENT_TOL
    assert opt.flags == ()


class TestBeamSplitterS01:
    BS = BeamSplitter(0.5, 0.5)

    def test_balance_contract_enforced(self):
        p1 = PulseSpec(n0=1.0, gamma=0.02)
        p2 = PulseSpec(n0=2.0, gamma=0.05)
        with pytest.raises(ScenarioContractError, match="balance"):
            optimal_phase_bs_s01(p1, p2, self.BS, 0.0, omega0=0.0)

    def test_one_sided_splitter_is_degenerate(self):
        p1 = PulseSpec(n0=1.0, gamma=0.02)
        p2 = PulseSpec(n0=2.0, gamma=0.02)
        opt = optimal_phase_bs_s01(p1, p2, BeamSplitter(1.0, 0.0), 0.0, omega0=0.0)
        assert "degenerate" in opt.flags

    def test_vertex_outside_cosine_range_is_flagged(self):
        p1 = PulseSpec(n0=1.0, gamma=0.001)
        p2 = PulseSpec(n0=1.0, gamma=0.001)
        opt = optimal_phase_bs_s01(p1, p2, self.BS, 0.0, omega0=0.0)
        assert "arccos-domain" in opt.flags
        assert math.isnan(opt.delta_phi_opt)
        # the quadratic vertex is unreachable, so the scan stays above it
        assert opt.s_min_numeric >= opt.s_min_closed

    def test_s1_of_twin_inputs_has_no_squeezing(self):
        p = PulseSpec(n0=1.0, gamma=0.02)
        opt = optimal_phase_bs_s01(p, p, self.BS, 0.0, omega0=0.0, which=StokesIndex.S1)
        # numerator r*n1 - t*n2 vanishes identically, so this one is exact
        assert opt.s_min_closed == 1.0

    def test_zero_over_zero_vertex_is_flagged(self):
        """phi1 = 0 on the balance manifold makes the vertex C = x / 0, and
        0 / 0 for S1 when R nbar1 = T nbar2: no closed phase, so the scan must
        be flagged as authoritative rather than a nan phase passed off as an
        optimum, and without a numpy division warning on the way."""
        for which, n2, flags in (
            (StokesIndex.S1, 1.0, ("arccos-domain",)),
            (StokesIndex.S0, 1.0, ("arccos-domain", "closed-form-discrepancy")),
            (StokesIndex.S1, 2.0, ("arccos-domain", "closed-form-discrepancy")),
        ):
            p1 = PulseSpec(n0=1.0)
            p2 = PulseSpec(n0=n2, gamma=1e-12)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                opt = optimal_phase_bs_s01(p1, p2, self.BS, 0.0, 0.5, which=which)
            assert opt.flags == flags
            assert math.isnan(opt.delta_phi_opt)
            assert math.isfinite(opt.delta_phi_numeric)

    def test_scan_does_not_stop_on_a_tie_that_straddles_the_minimum(self):
        """Here the two interior points of the golden search tie to 1e-12
        while its bracket is still 5.4e-5 wide, on either side of the minimum;
        stopping there read S 8.8e-9 above the closed form and flagged it."""
        gamma = 0.006929562006396404
        p1 = PulseSpec(n0=84.72769291203234, gamma=gamma, phi_lin=3.8154218224087395)
        p2 = PulseSpec(n0=160.97102184921988, gamma=gamma, phi_lin=4.3673130510011395)
        bs = BeamSplitter(0.45614995959506954, 0.5438500404049305)
        opt = optimal_phase_bs_s01(p1, p2, bs, 0.0, 0.8279870859603943, which=StokesIndex.S1)
        assert opt.flags == ()
        assert opt.agreement < 1e-12

    @pytest.mark.parametrize("which", [StokesIndex.S0, StokesIndex.S1])
    def test_verify_draws_stay_in_the_closed_form_domain(self, which):
        """verify's S0/S1 sweep asserts exactness, so none of its draws may
        fall outside the arccos domain or stop the scan short."""
        rng = np.random.default_rng(12345)
        flagged = [opt.flags for opt in (_draw_bs_s01(rng, which) for _ in range(2000))]
        assert [f for f in flagged if f] == []

    def test_rejects_s2_selector(self):
        with pytest.raises(ValueError):
            optimal_phase_bs_s01(
                PulseSpec(n0=1.0), PulseSpec(n0=1.0), self.BS, 0.0, 0.0,
                which=StokesIndex.S3,
            )


class TestBeamSplitterS2:
    BS = BeamSplitter(0.5, 0.5)
    P3 = PulseSpec(n0=100.0)

    def locked(self, gamma=0.005, n0=100.0):
        p1 = PulseSpec(n0=n0, gamma=gamma, phi_lin=math.pi / 2)
        p2 = PulseSpec(n0=n0, gamma=gamma, phi_lin=0.0)
        return p1, p2

    def test_equal_spm_contract(self):
        p1, p2 = self.locked()
        bad = PulseSpec(n0=50.0, gamma=0.002)
        with pytest.raises(ScenarioContractError, match="equal SPM"):
            optimal_phase_bs_s2(p1, bad, self.P3, self.BS, 0.0, omega0=0.0)

    def test_quadrature_lock_contract(self):
        p1, p2 = self.locked()
        unlocked = PulseSpec(n0=100.0, gamma=0.005, phi_lin=0.3)
        with pytest.raises(ScenarioContractError, match="quadrature"):
            optimal_phase_bs_s2(unlocked, p2, self.P3, self.BS, 0.0, omega0=0.0)

    def test_balanced_splitter_offset_and_flags(self):
        p1, p2 = self.locked()
        opt = optimal_phase_bs_s2(p1, p2, self.P3, self.BS, 0.0, omega0=0.0)
        phi = 2 * 0.005 * 100
        assert opt.delta_phi_opt == pytest.approx(math.pi / 4 - phi, abs=1e-13)
        # the stationary point of the published form is not the global
        # minimum of the kernel; the scan goes deeper and both flags fire
        assert "closed-form-discrepancy" in opt.flags
        assert opt.s_min_numeric <= opt.s_min_closed + AGREEMENT_TOL
        deeper = 1 + 2 * 100 * phi**2 - 2 * 100 * phi * math.sqrt(1 + phi**2)
        assert opt.s_min_numeric == pytest.approx(deeper, abs=1e-9)


@pytest.mark.parametrize("shape", list(EnvelopeShape), ids=lambda shape: shape.value)
def test_bs_s2_at_full_reflection_is_the_coh_sq_optimum_bit_for_bit(shape):
    """On its contract at R = 1, T = 0 the beam-splitter S2/S3 closed form is
    the coh_sq one with (nbar1, phi2) -> (nbar3, phi): both optimizers
    evaluate the one probe form, so the minima agree bit for bit, and there
    the published stationary point is the minimum, so no flag is raised."""
    rng = np.random.default_rng(1701)
    for _ in range(30):
        envelope = Envelope() if shape is EnvelopeShape.CONSTANT else (
            Envelope(shape, float(rng.uniform(0.5, 3.0)))
        )
        kerr = PulseSpec(
            n0=float(rng.uniform(10.0, 200.0)), envelope=envelope,
            gamma=float(rng.uniform(0.001, 0.01)), phi_lin=float(rng.uniform(0.0, 2 * math.pi)),
        )
        locked = PulseSpec(
            n0=kerr.n0, envelope=envelope, gamma=kerr.gamma, phi_lin=kerr.phi_lin - 0.5 * math.pi
        )
        probe = PulseSpec(
            n0=float(rng.uniform(0.2, 200.0)), envelope=envelope,
            phi_lin=float(rng.uniform(0.0, 2 * math.pi)),
        )
        coherent = PulseSpec(n0=probe.n0, envelope=envelope)
        t = float(rng.uniform(-0.5, 0.5))
        omega0 = float(rng.uniform(0.0, 1.5))
        for index in (StokesIndex.S2, StokesIndex.S3):
            bs = optimal_phase_bs_s2(kerr, locked, probe, BeamSplitter(1.0, 0.0), t, omega0, index)
            coh = optimal_phase_coh_sq(coherent, kerr, t, omega0, index)
            assert bs.s_min_closed == coh.s_min_closed
            assert bs.flags == coh.flags == ()
            if index is StokesIndex.S2:
                assert bs.delta_phi_opt == coh.delta_phi_opt


UNIT_PAIR = single_port_family(COHERENT_UNIT.at(0.0), KERR_UNIT_PHI.at(0.0), StokesIndex.S2)


def unit_pair_coefficients(dphi):
    """coh_sq (a_h, b_g) of COHERENT_UNIT and KERR_UNIT_PHI at offset dphi."""
    return UNIT_PAIR(COHERENT_UNIT.phi_lin + dphi)


def test_scan_needs_enough_resolution():
    """The coarse pass covers one period with 720 evenly spaced offsets."""
    seen = []

    def recording(dphi):
        seen.append(dphi)
        return unit_pair_coefficients(dphi)

    scan_phase(recording, 0.0)
    np.testing.assert_array_equal(seen[0], np.arange(720) * (2 * math.pi / 720))


def test_scan_rejects_negative_frequency():
    with pytest.raises(ValueError):
        scan_phase(unit_pair_coefficients, -1.0)


def test_scan_rejects_coefficients_that_are_not_finite():
    with pytest.raises(ValueError, match="double precision"):
        scan_phase(lambda dphi: (math.inf, 0.0 * dphi), 0.5)


def test_scan_finds_known_minimum():
    phi, s_min = scan_phase(unit_pair_coefficients, 0.0)
    assert 0.0 <= phi < 2 * math.pi
    assert s_min == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        kernel_coh_sq,
        kernel_two_sq,
        kernel_xpm,
        lambda p1, p2, t, index: optimal_phase_coh_sq(p1, p2, t, 0.7, index),
        lambda p1, p2, t, index: optimal_phase_two_sq(p1, p2, t, 0.7, index),
        lambda p1, p2, t, index: optimal_phase_xpm(p1, p2, t, 0.7, index),
    ],
    ids=["kernel_coh_sq", "kernel_two_sq", "kernel_xpm",
         "optimal_phase_coh_sq", "optimal_phase_two_sq", "optimal_phase_xpm"],
)
@pytest.mark.parametrize("index", ["S3", 3, None])
def test_single_port_family_rejects_a_non_stokes_index(build, index):
    with pytest.raises(ValueError, match="StokesIndex"):
        build(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, index)


def test_offset_records_encode_conventions():
    a = PulseSpec(n0=1.0, phi_lin=0.2)
    b = PulseSpec(n0=2.0, phi_lin=-0.9)
    assert SINGLE_PORT_OFFSET.apply((a, b), 0.5)[1].phi_lin == pytest.approx(0.7)
    assert BS_INPUT_OFFSET.apply((a, b), 0.5)[0].phi_lin == pytest.approx(-0.4)
    assert BS_PROBE_OFFSET.apply((b, a, b), 0.5)[2].phi_lin == pytest.approx(-0.3)


@pytest.mark.parametrize(
    "optimizer", [optimal_phase_coh_sq, optimal_phase_two_sq, optimal_phase_xpm],
    ids=["coh_sq", "two_sq", "xpm"],
)
@pytest.mark.parametrize("index", [StokesIndex.S0, StokesIndex.S1], ids=["S0", "S1"])
def test_conserved_single_port_components_are_degenerate(optimizer, index):
    opt = optimizer(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, 0.7, index)
    assert opt.flags == ("degenerate",)
    assert math.isnan(opt.delta_phi_opt)
    assert opt.s_min_closed == 1.0 and opt.s_min_numeric == 1.0


def _quarter_turn_cases():
    """(optimizer call at a Stokes index, S3 - S2 closed-form offset)."""
    kerr1 = PulseSpec(n0=40.0, gamma=0.01, gamma_x=0.003, phi_lin=0.4)
    kerr2 = PulseSpec(n0=90.0, gamma=0.004, gamma_x=0.002, phi_lin=2.2)
    p1, p2 = TestBeamSplitterS2().locked()
    probe = PulseSpec(n0=70.0, phi_lin=1.3)
    half_pi = 0.5 * math.pi
    return [
        (lambda index: optimal_phase_coh_sq(COHERENT_UNIT, kerr2, 0.1, 0.6, index), half_pi),
        (lambda index: optimal_phase_two_sq(kerr1, kerr2, 0.1, 0.6, index), half_pi),
        (lambda index: optimal_phase_xpm(kerr1, kerr2, 0.1, 0.6, index), half_pi),
        (lambda index: optimal_phase_bs_s2(
            p1, p2, probe, BeamSplitter(0.5, 0.5), 0.0, 0.6, index), -half_pi),
        (lambda index: optimal_phase_bs_s2(
            p1, p2, probe, BeamSplitter(0.3, 0.7), 0.0, 0.6, index), -half_pi),
    ]


@pytest.mark.parametrize(
    "optimum_at, shift", _quarter_turn_cases(),
    ids=["coh_sq", "two_sq", "xpm", "bs_s2_balanced", "bs_s2_unbalanced"],
)
def test_s3_closed_optimum_is_the_s2_one_a_quarter_turn_away(optimum_at, shift):
    """The S3 kernel is the S2 kernel with its angle advanced by pi/2; its
    optimum is the S2 one with the offset moved by +/- pi/2, exactly, while
    the scan evaluates the S3 kernel itself and must agree with it."""
    s2, s3 = optimum_at(StokesIndex.S2), optimum_at(StokesIndex.S3)
    assert s3.delta_phi_opt == s2.delta_phi_opt + shift
    assert s3.s_min_closed == s2.s_min_closed
    assert s3.s_min_numeric == pytest.approx(s2.s_min_numeric, abs=AGREEMENT_TOL)
    assert s3.s_min_numeric <= s3.s_min_closed + AGREEMENT_TOL


def test_vanishing_lorentzian_is_degenerate_for_every_optimizer():
    """Omega0 = 1e200 makes L(Omega0) = 1 / (1 + Omega0^2) exactly 0, so S = 1
    at every offset: no closed phase, whatever the pulses."""
    omega0 = 1e200
    twin = PulseSpec(n0=50.0, gamma=0.004, gamma_x=0.002)  # balanced: nbar1 phi2 == nbar2 phi1
    p1, p2 = TestBeamSplitterS2().locked()
    half = BeamSplitter(0.5, 0.5)
    optima = [
        optimal_phase_coh_sq(COHERENT_UNIT, KERR_UNIT_PHI, 0.0, omega0),
        optimal_phase_two_sq(twin, KERR_UNIT_PHI, 0.0, omega0),
        optimal_phase_xpm(twin, twin, 0.0, omega0),
        optimal_phase_bs_s01(twin, twin, half, 0.0, omega0),
        optimal_phase_bs_s2(p1, p2, TestBeamSplitterS2.P3, half, 0.0, omega0),
    ]
    for opt in optima:
        assert opt.flags == ("degenerate",)
        assert math.isnan(opt.delta_phi_opt)
        assert opt.s_min_closed == 1.0 and opt.s_min_numeric == 1.0
