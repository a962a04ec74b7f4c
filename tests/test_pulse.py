"""Pulse envelopes, nonlinear phases and the weak-coupling warning."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrstokes.errors import ApproximationWarning
from kerrstokes.pulse import (
    GAMMA_WEAK_LIMIT,
    Envelope,
    EnvelopeShape,
    LocalPulse,
    PulseSpec,
    _spm,
)

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


@pytest.mark.parametrize("t", [800.0, np.array([-800.0, 0.0, 800.0])], ids=["float", "array"])
def test_sech_far_outside_its_envelope_is_zero_without_a_warning(t):
    # cosh(800) overflows to inf, so r = 1 / cosh = 0 there, which is right
    pulse = PulseSpec(5.0, Envelope(EnvelopeShape.SECH, 1.0), 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nbar = pulse.at(t).nbar
    np.testing.assert_array_equal(nbar, np.where(np.abs(t) > 1.0, 0.0, 5.0))


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


def _bits(value):
    return [x.hex() for x in np.atleast_1d(np.asarray(value, dtype=float)).tolist()]


@pytest.mark.parametrize(
    "shape", [EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH, EnvelopeShape.CONSTANT]
)
def test_nonlinear_quantities_track_local_intensity(shape):
    """Every LocalPulse field is the module docstring's formula, bit for bit,
    at float times and on an ndarray of times."""
    envelope = Envelope() if shape is EnvelopeShape.CONSTANT else Envelope(shape, tau_p=3.0)
    n0, gamma, gamma_x, phi_lin = 50.0, 0.02, 0.01, 0.3
    pulse = PulseSpec(n0, envelope, gamma, gamma_x, phi_lin)
    for t in (0.0, 1.0, -2.5, np.array([-4.0, -0.3, 0.0, 0.9, 2.5])):
        local = pulse.at(t)
        assert isinstance(local, LocalPulse)
        assert (local.gamma, local.gamma_x, local.phi_lin) == (gamma, gamma_x, phi_lin)
        r = envelope.amplitude(t)
        nbar = n0 * r * r
        phi, phix = 2.0 * gamma * nbar, 2.0 * gamma_x * nbar
        formulas = {
            "nbar": (local.nbar, nbar),
            "phi": (local.phi, phi),
            "mu": (local.mu, gamma * gamma * nbar / 2.0),
            "phix": (local.phix, phix),
            "mux": (local.mux, gamma_x * gamma_x * nbar / 2.0),
            "kerr": (local.kerr(), phi - phix),
            "total": (local.total(), (phi - phix) + phi_lin),
        }
        for name, (got, want) in formulas.items():
            assert np.shape(got) == np.shape(t), (name, t)
            assert _bits(got) == _bits(want), (name, t)
        assert _bits(pulse.mean_photons(t)) == _bits(nbar)


def test_total_phase_with_and_without_cross_terms():
    pulse = PulseSpec(n0=10.0, gamma=0.05, gamma_x=0.02, phi_lin=0.3)
    (without_xpm,) = _spm(0.0, pulse)
    assert without_xpm.total() == pytest.approx(2 * 0.05 * 10 + 0.3, rel=1e-14)
    with_xpm = pulse.at(0.0).total()
    assert with_xpm == pytest.approx((2 * 0.05 * 10 - 2 * 0.02 * 10) + 0.3, rel=1e-14)


def test_total_phase_collapses_bitwise_without_cross_coupling():
    # The xpm -> spm reduction chain depends on this being exact, not approximate.
    local = PulseSpec(n0=123.4, gamma=0.0371, gamma_x=0.0, phi_lin=1.1).at(0.7)
    assert local.total() == local.phi + local.phi_lin


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
    doubled = PulseSpec(n0=2 * n0, gamma=gamma).at(0.0).phi
    single = PulseSpec(n0=n0, gamma=gamma).at(0.0).phi
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


def test_record_with_phase_is_the_moved_pulse_at_t():
    pulse = PulseSpec(n0=3.0, envelope=Envelope(EnvelopeShape.SECH, 1.5), gamma=0.02, gamma_x=0.01)
    record = pulse.at(0.4)
    assert record.with_phase(0.8) == pulse.with_phase(0.8).at(0.4)
    assert record.phi_lin == 0.0
