"""Average Stokes parameters for each overlap scenario."""

import math

import pytest

from kerrstokes.errors import ScenarioContractError
from kerrstokes.pulse import PulseSpec
from kerrstokes.scenario import BeamSplitter
from kerrstokes.stokes import (
    StokesSummary,
    averages_bs,
    averages_coh_sq,
    averages_two_sq,
    averages_xpm,
)


def coherent(n0, phi_lin=0.0):
    return PulseSpec(n0=n0, phi_lin=phi_lin)


class TestCoherentLimits:
    """With all couplings off the classical two-beam formulas must hold."""

    def test_components(self):
        s = averages_coh_sq(coherent(4.0), coherent(1.0, phi_lin=0.25), t=0.0)
        assert s.s0 == pytest.approx(5.0, rel=1e-14)
        assert s.s1 == pytest.approx(3.0, rel=1e-14)
        assert s.s2 == pytest.approx(4.0 * math.cos(0.25), rel=1e-14)
        assert s.s3 == pytest.approx(4.0 * math.sin(0.25), rel=1e-14)

    def test_fully_polarized(self):
        s = averages_coh_sq(coherent(2.0), coherent(3.0, phi_lin=1.0), t=0.0)
        # |s1,s2,s3| equals s0 for coherent light: radius^2 expands to (n1+n2)^2
        assert s.poincare_radius == pytest.approx(s.s0, rel=1e-13)
        assert s.degree_of_polarization == pytest.approx(1.0, rel=1e-13)

    def test_degree_of_polarization_undefined_for_vacuum(self):
        s = averages_two_sq(coherent(0.0), coherent(0.0), t=0.0)
        assert s.s0 == 0.0
        assert math.isnan(s.degree_of_polarization)


def test_coh_sq_damping_and_angle():
    p1 = coherent(4.0, phi_lin=0.1)
    p2 = PulseSpec(n0=25.0, gamma=0.02, phi_lin=0.6)
    s = averages_coh_sq(p1, p2, t=0.0)
    mu2 = 0.02**2 * 25 / 2
    amp = 2 * math.sqrt(4 * 25) * math.exp(-mu2)
    angle = (2 * 0.02 * 25 + 0.6) - 0.1  # Kerr phase of pulse 2 plus linear offset
    assert math.hypot(s.s2, s.s3) == pytest.approx(amp, rel=1e-13)
    assert math.atan2(s.s3, s.s2) == pytest.approx(angle, rel=1e-13)


def test_two_sq_damping_includes_both_pulses():
    p1 = PulseSpec(n0=9.0, gamma=0.03)
    p2 = PulseSpec(n0=16.0, gamma=0.05)
    s = averages_two_sq(p1, p2, t=0.0)
    mu = 0.03**2 * 9 / 2 + 0.05**2 * 16 / 2
    assert math.hypot(s.s2, s.s3) == pytest.approx(2 * 12 * math.exp(-mu), rel=1e-13)


def test_xpm_damping_adds_cross_terms():
    p1 = PulseSpec(n0=9.0, gamma=0.03, gamma_x=0.02)
    p2 = PulseSpec(n0=16.0, gamma=0.05, gamma_x=0.01)
    s = averages_xpm(p1, p2, t=0.0)
    delta = (0.03**2 + 0.02**2) * 9 / 2 + (0.05**2 + 0.01**2) * 16 / 2
    assert math.hypot(s.s2, s.s3) == pytest.approx(2 * 12 * math.exp(-delta), rel=1e-13)


def test_xpm_reduces_to_two_sq_without_cross_coupling():
    p1 = PulseSpec(n0=5.0, gamma=0.04, phi_lin=0.2)
    p2 = PulseSpec(n0=7.0, gamma=0.01, phi_lin=-0.4)
    assert averages_xpm(p1, p2, 0.0) == averages_two_sq(p1, p2, 0.0)


def test_coh_sq_requires_coherent_first_pulse():
    with pytest.raises(ScenarioContractError, match="coherent"):
        averages_coh_sq(PulseSpec(n0=1.0, gamma=0.01), coherent(1.0), t=0.0)


class TestBeamSplitter:
    def setup_method(self):
        self.bs = BeamSplitter(0.5, 0.5)
        self.p1 = PulseSpec(n0=1.0, gamma=0.05)
        self.p2 = PulseSpec(n0=1.5, gamma=0.05, phi_lin=0.3)
        self.p3 = coherent(2.0, phi_lin=0.7)

    def test_probe_enters_only_through_the_monitored_port(self):
        s = averages_bs(self.p1, self.p2, self.p3, self.bs, t=0.0)
        # s0 = port + nbar3 and s1 = port - nbar3, so their difference is fixed.
        assert s.s0 - s.s1 == pytest.approx(2 * 2.0, rel=1e-14)

    def test_coherent_port_intensity(self):
        s = averages_bs(coherent(1.0), coherent(1.5, phi_lin=0.3), self.p3, self.bs, t=0.0)
        port = 0.5 + 0.75 + math.sqrt(1.5) * math.sin(0.3)
        assert (s.s0 + s.s1) / 2 == pytest.approx(port, rel=1e-13)

    def test_probe_interference_damped_by_kerr_pulse_only(self):
        s = averages_bs(coherent(0.0), self.p2, self.p3, self.bs, t=0.0)
        mu2 = 0.05**2 * 1.5 / 2
        expected = 2 * math.sqrt(0.5 * 1.5 * 2.0) * math.exp(-mu2)
        assert math.hypot(s.s2, s.s3) == pytest.approx(expected, rel=1e-13)

    def test_unbalanced_splitter_rejected(self):
        with pytest.raises(ScenarioContractError, match="r \\+ t"):
            averages_bs(self.p1, self.p2, self.p3, BeamSplitter(0.6, 0.5), t=0.0)

    def test_kerr_probe_rejected(self):
        bad_probe = PulseSpec(n0=1.0, gamma=0.01)
        with pytest.raises(ScenarioContractError, match="probe"):
            averages_bs(self.p1, self.p2, bad_probe, self.bs, t=0.0)


def test_summary_from_components_fills_derived_fields():
    s = StokesSummary.from_components(3.0, 1.0, 2.0, 2.0)
    assert s.poincare_radius == pytest.approx(3.0)
    assert s.degree_of_polarization == pytest.approx(1.0)


@pytest.mark.parametrize(
    "components, field",
    [
        ((math.inf, 0.0, math.inf, math.nan), "s0"),
        ((1.0, math.nan, 0.0, 0.0), "s1"),
        ((1.0, -1e308, 1e308, 0.0), "poincare_radius"),
    ],
)
def test_summary_rejects_non_finite_averages(components, field):
    with pytest.raises(ValueError, match=f"{field} is not finite"):
        StokesSummary.from_components(*components)
