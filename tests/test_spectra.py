"""Correlation-kernel coefficients and spectrum evaluation."""

import inspect
import math
import warnings

import numpy as np
import pytest

from kerrstokes.errors import ApproximationWarning
from kerrstokes.kernel import lorentzian
from kerrstokes.pulse import Envelope, EnvelopeShape, PulseSpec, _spm
from kerrstokes.scenario import BeamSplitter
from kerrstokes.spectra import (
    CorrelationKernel,
    StokesIndex,
    bs_s01_family,
    bs_s2_family,
    kernel_bs_s01,
    kernel_bs_s2,
    kernel_coh_sq,
    kernel_two_sq,
    kernel_xpm,
    single_port_family,
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


ENVELOPES = (
    Envelope(),
    Envelope(EnvelopeShape.GAUSSIAN, tau_p=1.5),
    Envelope(EnvelopeShape.SECH, tau_p=0.8),
)


def _seeded_families(rng, draws):
    """(label, family) for every family and component, ``draws`` pulse sets per envelope."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    for envelope in ENVELOPES:
        for _ in range(draws):
            t = u(-1.5, 1.5)
            p1, p2 = (
                PulseSpec(
                    u(0.5, 300.0), envelope,
                    gamma=u(0.0, 0.05), gamma_x=u(0.0, 0.02), phi_lin=u(-4.0, 4.0),
                )
                for _ in range(2)
            )
            probe = PulseSpec(u(0.5, 80.0), envelope, phi_lin=u(-4.0, 4.0))
            r = u(0.0, 1.0)
            bs = BeamSplitter(r, 1.0 - r)
            for index in StokesIndex:
                for xpm, records in ((False, _spm(t, p1, p2)), (True, (p1.at(t), p2.at(t)))):
                    family = single_port_family(*records, index)
                    yield f"single-port {index.value} xpm={xpm}", family
            for which in (StokesIndex.S0, StokesIndex.S1):
                yield f"bs_s01 {which.value}", bs_s01_family(p1.at(t), p2.at(t), bs, which)
            for index in (StokesIndex.S2, StokesIndex.S3):
                family = bs_s2_family(p1.at(t), p2.at(t), probe.at(t), bs, index)
                yield f"bs_s2 {index.value}", family


def test_float_and_array_evaluations_are_bit_equal():
    """A family on a float takes libm's sin, cos and pow; on an ndarray, numpy's.
    Kernel builders and the scan's golden refinement use the first, the scan's
    coarse pass the second, so they must round alike."""
    rng = np.random.default_rng(20261019)
    compared = 0
    for label, family in _seeded_families(rng, draws=12):
        phases = rng.uniform(-8.0, 8.0, 16)
        vector = [np.broadcast_to(c, phases.shape) for c in family(phases)]
        for i, phase in enumerate(phases.tolist()):
            single = [np.broadcast_to(c, 1) for c in family(np.array([phase]))]
            for k, scalar in enumerate(family(phase)):
                assert math.isfinite(scalar), (label, phase)
                bits = {float(x).hex() for x in (scalar, single[k][0], vector[k][i])}
                assert len(bits) == 1, (label, phase, bits)
                compared += 1
    assert compared == len(ENVELOPES) * 12 * 12 * 16 * 2


OVERFLOW_REPROS = {
    "two_sq": lambda big, small: kernel_two_sq(big, small, 0.0),
    "xpm": lambda big, small: kernel_xpm(big, small, 0.0),
    "two_sq S3": lambda big, small: kernel_two_sq(big, small, 0.0, StokesIndex.S3),
    "bs_s01": lambda big, small: kernel_bs_s01(big, small, HALF, 0.0),
    "bs_s2": lambda big, small: kernel_bs_s2(big, small, PROBE, HALF, 0.0),
}


@pytest.mark.parametrize("name", OVERFLOW_REPROS)
def test_kerr_phase_past_double_range_is_rejected_on_the_float_route(name):
    # phi1 = 2 gamma n0 overflows to inf: libm's sin(inf) raises a domain error,
    # which the float route replaces with numpy's nan and its RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        big = PulseSpec(1e308, gamma=1.0)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in"):
        with pytest.raises(ValueError, match=r"^a_h must be a finite number, got nan$"):
            OVERFLOW_REPROS[name](big, PulseSpec(10.0, gamma=0.01))
