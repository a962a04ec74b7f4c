"""Correlation-kernel coefficients and spectrum evaluation."""

import inspect
import math

import numpy as np
import pytest

from kerrstokes.kernel import lorentzian
from kerrstokes.pulse import PulseSpec
from kerrstokes.scenario import BeamSplitter
from kerrstokes.spectra import (
    CorrelationKernel,
    StokesIndex,
    kernel_bs_s01,
    kernel_bs_s2,
    kernel_coh_sq,
    kernel_two_sq,
    kernel_xpm,
    spectrum,
    spectrum_value,
)

P1 = PulseSpec(n0=2.0, phi_lin=0.15)
P2 = PulseSpec(n0=40.0, gamma=0.02, phi_lin=0.8)
P2B = PulseSpec(n0=10.0, gamma=0.03, phi_lin=-0.2)
PROBE = PulseSpec(n0=3.0, phi_lin=0.4)
HALF = BeamSplitter(0.5, 0.5)


def test_coh_sq_coefficients_match_hand_expansion():
    kern = kernel_coh_sq(P1, P2, t=0.0)
    phi2 = 2 * 0.02 * 40
    theta = 0.15 - (phi2 + 0.8)  # own linear phase minus partner's full phase
    assert kern.a_h == pytest.approx(2.0 * phi2 * math.sin(2 * theta), rel=1e-13)
    assert kern.b_g == pytest.approx(2.0 * phi2**2 * math.sin(theta) ** 2, rel=1e-13)


def test_two_sq_coefficients_match_hand_expansion():
    kern = kernel_two_sq(P2B, P2, t=0.0)
    phi1, phi2 = 2 * 0.03 * 10, 2 * 0.02 * 40
    theta = (phi1 - 0.2) - (phi2 + 0.8)
    a = (10 * phi2 - 40 * phi1) * math.sin(2 * theta)
    b = (10 * phi2**2 + 40 * phi1**2) * math.sin(theta) ** 2
    assert kern.a_h == pytest.approx(a, rel=1e-13)
    assert kern.b_g == pytest.approx(b, rel=1e-13)


def test_single_port_s0_s1_are_flat():
    for index in (StokesIndex.S0, StokesIndex.S1):
        for build in (kernel_coh_sq, kernel_two_sq, kernel_xpm):
            kern = build(P1, P2, 0.0, index)
            assert kern.a_h == 0.0 and kern.b_g == 0.0


def test_s3_kernel_is_quarter_turn_of_s2():
    k2 = kernel_coh_sq(P1, P2, 0.0, StokesIndex.S2)
    k3 = kernel_coh_sq(P1, P2, 0.0, StokesIndex.S3)
    # sin(2theta + pi) = -sin(2theta); sin^2 splits the angle-free weight.
    assert k3.a_h == pytest.approx(-k2.a_h, rel=1e-13)
    total = 2.0 * (2 * 0.02 * 40) ** 2
    assert k2.b_g + k3.b_g == pytest.approx(total, abs=1e-12)


def test_xpm_collapses_to_two_sq_bitwise():
    p1 = PulseSpec(n0=10.0, gamma=0.03, gamma_x=0.0, phi_lin=-0.2)
    p2 = PulseSpec(n0=40.0, gamma=0.02, gamma_x=0.0, phi_lin=0.8)
    kx = kernel_xpm(p1, p2, 0.0)
    kt = kernel_two_sq(p1, p2, 0.0)
    assert kx.a_h == kt.a_h and kx.b_g == kt.b_g


def test_bs_s01_signature_has_no_probe_parameter():
    params = inspect.signature(kernel_bs_s01).parameters
    assert "p3" not in params and "probe" not in params


def test_bs_s01_rejects_s2_request():
    with pytest.raises(ValueError):
        kernel_bs_s01(P2B, P2, HALF, 0.0, StokesIndex.S2)


def test_bs_s2_rejects_s0_request():
    with pytest.raises(ValueError):
        kernel_bs_s2(P2B, P2, PROBE, HALF, 0.0, StokesIndex.S0)


def test_bs_s2_scales_with_probe_intensity():
    bright = kernel_bs_s2(P2B, P2, PROBE, HALF, 0.0)
    dim = kernel_bs_s2(P2B, P2, PulseSpec(n0=0.75, phi_lin=0.4), HALF, 0.0)
    assert bright.a_h == pytest.approx(4 * dim.a_h, rel=1e-13)
    assert bright.b_g == pytest.approx(4 * dim.b_g, rel=1e-13)


def test_spectrum_value_combines_lorentzians():
    kern = CorrelationKernel(a_h=-0.3, b_g=0.2)
    for omega in (0.0, 0.7, 2.5):
        lor = lorentzian(omega)
        expected = 1.0 + 2.0 * lor * (-0.3) + 4.0 * lor * lor * 0.2
        assert spectrum_value(kern, omega) == expected


def test_grid_spectrum_matches_scalar_bitwise():
    kern = kernel_coh_sq(P1, P2, t=0.0)
    grid = np.linspace(0.0, 5.0, 97)
    series = spectrum(kern, grid, reference_intensity=2.0)
    scalars = np.array([spectrum_value(kern, w) for w in grid])
    assert np.array_equal(series.values, scalars)
    assert np.array_equal(series.normalized, (series.values - 1.0) / 2.0)


def test_spectrum_grid_validation():
    kern = kernel_coh_sq(P1, P2, t=0.0)
    with pytest.raises(ValueError):
        spectrum(kern, np.array([]))
    with pytest.raises(ValueError):
        spectrum(kern, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectrum(kern, np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        spectrum(kern, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        spectrum(kern, np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        spectrum(kern, np.array([0.0, 1.0]), reference_intensity=0.0)


def test_spectrum_rejects_non_finite_normalized_values():
    # S - 1 is of order 1, so a denormal reference overflows S* to -inf
    kern = kernel_coh_sq(P1, P2, t=0.0)
    huge = CorrelationKernel(1e308, 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            spectrum(kern, np.array([0.0, 1.0]), reference_intensity=1e-310)
        with pytest.raises(ValueError, match="not finite"):
            spectrum(huge, np.array([0.0, 1.0]))


def test_kernel_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        CorrelationKernel(math.nan, 0.0)
    with pytest.raises(ValueError):
        CorrelationKernel(0.0, math.inf)
