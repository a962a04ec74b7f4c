"""Independent numerical routes: quadrature spectra and phasor arithmetic."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kerrstokes
from kerrstokes.errors import ScenarioContractError
from kerrstokes.kernel import RelaxationKernel, fourier_g_closed, fourier_h_closed
from kerrstokes.oracle import (
    QUADRATURE_POINTS,
    QUADRATURE_TRUNCATION,
    _simpson,
    mc_coherent_phasor,
    wk_numeric,
)
from kerrstokes.pulse import PulseSpec
from kerrstokes.spectra import CorrelationKernel
from kerrstokes.stokes import averages_coh_sq

RELAX = RelaxationKernel(1.0)


def make_kernel(a_h, b_g):
    return CorrelationKernel(a_h=a_h, b_g=b_g)


class TestQuadraturePoints:
    def test_defaults_are_valid(self):
        assert QUADRATURE_POINTS % 4 == 1 and QUADRATURE_POINTS >= 4001
        assert wk_numeric(make_kernel(0.0, 0.0), RELAX, 1.0) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points": 4002},
            {"points": 20000},
            {"points": 2001},
            {"points": 20001.0},
            {"points": 4003},  # odd, but the half grid would have an even node count
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError, match="points"):
            wk_numeric(make_kernel(0.7, -0.2), RELAX, 1.0, **kwargs)


@pytest.mark.parametrize(
    "omega",
    [-0.5, math.nan, math.inf, np.array([0.0, -1.0]), np.array([1.0, math.nan]),
     np.ones((2, 3)), np.array(1.0), "1.0", None, np.array([1.0 + 0.5j])],
    ids=["negative", "nan", "inf", "negative-entry", "nan-entry", "2-d", "0-d-array",
         "string", "none", "complex"],
)
def test_rejects_bad_frequencies(omega):
    with pytest.raises(ValueError, match="omega"):
        wk_numeric(make_kernel(0.7, -0.2), RELAX, omega)


def _full_grid_reference(kern, relax, omega, points):
    """The complex full-grid route: Simpson over all ``points`` nodes of
    k(tau) e^{i Omega tau / tau_r}, real part kept."""
    mid = points // 2
    step = QUADRATURE_TRUNCATION * relax.tau_r / mid
    tau = (np.arange(points) - mid) * step
    integrand = (kern.a_h * relax.h(tau) + kern.b_g * relax.g(tau)) * np.exp(
        1j * (omega / relax.tau_r) * tau
    )
    return 1.0 + complex(_simpson(integrand, step)).real


@pytest.mark.parametrize("points", [4001, 20001, 40001])
def test_half_grid_cosine_matches_full_grid_complex_route(points):
    rng = np.random.default_rng(1500 + points)
    for _ in range(50):
        kern = make_kernel(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 3.0)))
        relax = RelaxationKernel(float(rng.uniform(0.5, 2.0)))
        omega = float(rng.uniform(0.0, 5.0))
        got = wk_numeric(kern, relax, omega, points=points)
        assert abs(got - _full_grid_reference(kern, relax, omega, points)) <= 1e-13


def test_frequency_array_equals_scalar_calls_bit_for_bit():
    kern = make_kernel(0.7, 1.3)
    relax = RelaxationKernel(0.8)
    omegas = np.concatenate([np.linspace(0.0, 5.0, 21), [7.25, 0.125]])
    got = wk_numeric(kern, relax, omegas)
    assert isinstance(got, np.ndarray) and got.shape == omegas.shape
    assert got.tolist() == [wk_numeric(kern, relax, float(om)) for om in omegas]
    assert wk_numeric(kern, relax, [0, 2]).tolist() == [
        wk_numeric(kern, relax, 0), wk_numeric(kern, relax, 2)
    ]
    assert wk_numeric(kern, relax, np.array([])).shape == (0,)
    assert type(wk_numeric(kern, relax, 2)) is float


def test_kernel_that_is_not_even_is_rejected():
    class SkewedRelaxation(RelaxationKernel):
        def g(self, tau):
            return super().g(tau) * (1.0 + 1e-3 * np.tanh(tau))

    with pytest.raises(ArithmeticError, match="not even"):
        wk_numeric(make_kernel(0.7, 1.3), SkewedRelaxation(1.0), 1.0)
    # with b_g = 0 the skewed g carries no weight and the kernel stays even
    assert wk_numeric(make_kernel(1.0, 0.0), SkewedRelaxation(1.0), 1.0) == wk_numeric(
        make_kernel(1.0, 0.0), RELAX, 1.0
    )


@pytest.mark.parametrize(
    "kern, tau_r, omega, where",
    [
        (make_kernel(1e308, 1e308), 1.0, 1.0, "kernel"),  # a_h + b_g overflows
        (make_kernel(1e308, 1e308), 1.0, np.array([0.0, 2.0]), "kernel"),
        (make_kernel(1.0, 0.5), 6e-309, 1.0, "kernel"),  # 1 / tau_r overflows
        (make_kernel(0.0, 0.0), 5e306, 1.0, "kernel"),  # 40 tau_r overflows: tau is nan
        (make_kernel(1e308, 0.0), 1.0, 0.0, "S = "),  # a finite kernel, its sum overflows
    ],
    ids=["huge-kernel", "huge-kernel-array", "tiny-tau-r", "huge-tau-r", "huge-sum"],
)
def test_quadrature_beyond_double_precision_is_rejected(kern, tau_r, omega, where):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="double precision") as err:
        wk_numeric(kern, RelaxationKernel(tau_r), omega)
    assert where in str(err.value)


def test_quadrature_reproduces_lorentzian_transforms():
    for omega in (0.0, 0.5, 1.0, 3.0, 5.0):
        s_h = wk_numeric(make_kernel(1.0, 0.0), RELAX, omega)
        s_g = wk_numeric(make_kernel(0.0, 1.0), RELAX, omega)
        assert s_h - 1.0 == pytest.approx(fourier_h_closed(omega), abs=1e-6)
        assert s_g - 1.0 == pytest.approx(fourier_g_closed(omega), abs=1e-6)


def test_quadrature_independent_of_relaxation_time():
    """In reduced frequency the relaxation time cancels; tau_r is only a
    change of integration variable."""
    kern = make_kernel(-0.4, 0.3)
    values = [wk_numeric(kern, RelaxationKernel(tr), 1.3) for tr in (0.25, 1.0, 4.0)]
    assert values[0] == pytest.approx(values[1], abs=1e-9)
    assert values[2] == pytest.approx(values[1], abs=1e-9)


def test_flat_kernel_gives_shot_noise_exactly():
    assert wk_numeric(make_kernel(0.0, 0.0), RELAX, 2.0) == 1.0


def test_quadrature_converges_with_more_points():
    kern = make_kernel(0.7, -0.2)
    closed = 1.0 + 0.7 * fourier_h_closed(4.0) - 0.2 * fourier_g_closed(4.0)
    coarse = wk_numeric(kern, RELAX, 4.0, points=4001)
    fine = wk_numeric(kern, RELAX, 4.0, points=40001)
    assert abs(fine - closed) < abs(coarse - closed) or abs(fine - closed) < 1e-10


class TestSimpsonRule:
    def test_integrates_a_cubic_exactly(self):
        # Simpson's rule is exact for cubics; on [0, 2] x^3 - 2x^2 + 3x + 1
        # integrates to 4 - 16/3 + 6 + 2 = 20/3
        x = np.linspace(0.0, 2.0, 4001)
        total = _simpson(x**3 - 2.0 * x**2 + 3.0 * x + 1.0, x[1] - x[0])
        assert abs(total - 20.0 / 3.0) <= math.ulp(20.0 / 3.0)

    def test_matches_scipy_bit_for_bit(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = 2 * int(rng.integers(2000, 10000)) + 1
            dx = float(rng.uniform(1e-3, 1e-1))
            tau = (np.arange(n) - n // 2) * dx
            y = rng.normal() * np.exp(-np.abs(tau) * rng.uniform(0.1, 2.0)) * np.exp(
                1j * rng.uniform(0.0, 10.0) * tau
            ) + rng.normal() * np.exp(-(tau**2) / rng.uniform(1.0, 20.0))
            expected = scipy_integrate.simpson(y, dx=dx)
            got = _simpson(y, dx)
            assert (got.real, got.imag) == (expected.real, expected.imag)


def test_package_import_leaves_scipy_out():
    src = Path(kerrstokes.__file__).resolve().parent.parent
    code = "import sys, kerrstokes, kerrstokes.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestCoherentPhasorSampling:
    P1 = PulseSpec(n0=4.0)
    P2 = PulseSpec(n0=1.0, phi_lin=math.pi)

    def test_matches_analytic_averages(self):
        phasor = mc_coherent_phasor(self.P1, self.P2, t=0.0)
        exact = averages_coh_sq(self.P1, self.P2, 0.0)
        assert phasor.s0 == pytest.approx(exact.s0, abs=1e-12)
        assert phasor.s1 == pytest.approx(exact.s1, abs=1e-12)
        assert phasor.s2 == pytest.approx(-4.0, abs=1e-12)
        assert phasor.s3 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_kerr_pulses(self):
        kerr = PulseSpec(n0=1.0, gamma=0.01)
        with pytest.raises(ScenarioContractError):
            mc_coherent_phasor(self.P1, kerr, 0.0)
        cross = PulseSpec(n0=1.0, gamma_x=0.01)
        with pytest.raises(ScenarioContractError):
            mc_coherent_phasor(cross, self.P2, 0.0)


def test_gaussian_envelopes_shift_the_overlap():
    from kerrstokes.pulse import Envelope, EnvelopeShape

    p1 = PulseSpec(n0=4.0, envelope=Envelope(EnvelopeShape.GAUSSIAN, tau_p=2.0))
    p2 = PulseSpec(n0=1.0, envelope=Envelope(EnvelopeShape.SECH, tau_p=1.0))
    phasor = mc_coherent_phasor(p1, p2, t=1.5)
    exact = averages_coh_sq(p1, p2, 1.5)
    np.testing.assert_allclose(
        [phasor.s0, phasor.s1, phasor.s2, phasor.s3],
        [exact.s0, exact.s1, exact.s2, exact.s3],
        atol=1e-12,
    )
