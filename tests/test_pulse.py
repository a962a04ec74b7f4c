"""Pulse envelopes, nonlinear phases and the weak-coupling warning."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrstokes.errors import ApproximationWarning
from kerrstokes.pulse import GAMMA_WEAK_LIMIT, Envelope, EnvelopeShape, PulseSpec

PHOTON_NUMBERS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
COUPLINGS = st.floats(min_value=0.0, max_value=0.1, allow_nan=False)


def test_constant_envelope_is_unity_everywhere():
    env = Envelope()
    assert env.amplitude(3.7) == 1.0
    np.testing.assert_array_equal(env.amplitude(np.array([-5.0, 0.0, 5.0])), 1.0)


def test_gaussian_envelope_values():
    env = Envelope(EnvelopeShape.GAUSSIAN, tau_p=2.0)
    assert env.amplitude(0.0) == 1.0
    assert env.amplitude(2.0) == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_sech_envelope_values():
    env = Envelope(EnvelopeShape.SECH, tau_p=1.5)
    assert env.amplitude(0.0) == 1.0
    assert env.amplitude(1.5) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)


def test_shaped_envelope_requires_duration():
    with pytest.raises(ValueError):
        Envelope(EnvelopeShape.GAUSSIAN)
    with pytest.raises(ValueError):
        Envelope(EnvelopeShape.SECH, tau_p=-1.0)


@pytest.mark.parametrize("shape", [EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH])
def test_non_numeric_duration_is_a_value_error(shape):
    # math.isfinite("2") would raise TypeError; every other record raises ValueError
    with pytest.raises(ValueError, match=f"{shape.value} envelope needs tau_p > 0, got '2'"):
        Envelope(shape, "2")


def test_gaussian_duration_whose_square_underflows_is_rejected():
    # 2 tau_p^2 underflows to 0, so amplitude() would divide by zero
    with pytest.raises(ValueError, match="tau_p"):
        Envelope(EnvelopeShape.GAUSSIAN, tau_p=1e-200)
    assert Envelope(EnvelopeShape.GAUSSIAN, tau_p=1e-150).amplitude(0.0) == 1.0


@pytest.mark.parametrize("shape", [EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH])
def test_nonlinear_quantities_track_local_intensity(shape):
    pulse = PulseSpec(n0=50.0, envelope=Envelope(shape, tau_p=3.0), gamma=0.02, gamma_x=0.01)
    for t in (0.0, 1.0, -2.5):
        nbar = 50.0 * pulse.envelope.amplitude(t) ** 2
        assert pulse.mean_photons(t) == pytest.approx(nbar, rel=1e-14)
        assert pulse.spm_phase(t) == pytest.approx(2 * 0.02 * nbar, rel=1e-14)
        assert pulse.spm_damping(t) == pytest.approx(0.02**2 * nbar / 2, rel=1e-14)
        assert pulse.xpm_phase(t) == pytest.approx(2 * 0.01 * nbar, rel=1e-14)
        assert pulse.xpm_damping(t) == pytest.approx(0.01**2 * nbar / 2, rel=1e-14)


def test_total_phase_with_and_without_cross_terms():
    pulse = PulseSpec(n0=10.0, gamma=0.05, gamma_x=0.02, phi_lin=0.3)
    spm_only = pulse.total_phase(0.0)
    with_xpm = pulse.total_phase(0.0, include_xpm=True)
    assert spm_only == pytest.approx(2 * 0.05 * 10 + 0.3, rel=1e-14)
    assert with_xpm == pytest.approx((2 * 0.05 * 10 - 2 * 0.02 * 10) + 0.3, rel=1e-14)


def test_total_phase_collapses_bitwise_without_cross_coupling():
    # The xpm -> spm reduction chain depends on this being exact, not approximate.
    pulse = PulseSpec(n0=123.4, gamma=0.0371, gamma_x=0.0, phi_lin=1.1)
    assert pulse.total_phase(0.7, include_xpm=True) == pulse.total_phase(0.7)


def test_weak_coupling_warning_thresholds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PulseSpec(n0=1.0, gamma=GAMMA_WEAK_LIMIT)  # boundary stays silent
    with pytest.warns(ApproximationWarning):
        PulseSpec(n0=1.0, gamma=0.2)
    with pytest.warns(ApproximationWarning):
        PulseSpec(n0=1.0, gamma_x=0.11)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n0": -1.0},
        {"n0": math.nan},
        {"n0": 1.0, "gamma": -0.01},
        {"n0": 1.0, "gamma_x": -0.5},
        {"n0": 1.0, "phi_lin": math.inf},
    ],
)
def test_pulse_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        PulseSpec(**kwargs)


@given(n0=PHOTON_NUMBERS, gamma=COUPLINGS)
def test_spm_phase_linear_in_peak_photons(n0, gamma):
    doubled = PulseSpec(n0=2 * n0, gamma=gamma).spm_phase(0.0)
    single = PulseSpec(n0=n0, gamma=gamma).spm_phase(0.0)
    assert doubled == pytest.approx(2 * single, rel=1e-12, abs=1e-300)


def test_with_phase_changes_only_the_linear_phase():
    with pytest.warns(ApproximationWarning):
        strong = PulseSpec(n0=3.0, envelope=Envelope(EnvelopeShape.SECH, 1.5), gamma=0.45)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the coupling was already reported
        moved = strong.with_phase(0.8)
    with pytest.warns(ApproximationWarning):
        assert moved == PulseSpec(n0=3.0, envelope=strong.envelope, gamma=0.45, phi_lin=0.8)
    assert strong.phi_lin == 0.0
    with pytest.raises(ValueError, match="phi_lin"):
        strong.with_phase(math.nan)
