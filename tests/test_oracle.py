"""Independent numerical routes: quadrature spectra and phasor sampling."""

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
from kerrstokes.oracle import QuadratureSpec, _simpson, mc_coherent_phasor, wk_numeric
from kerrstokes.pulse import PulseSpec
from kerrstokes.spectra import CorrelationKernel, StokesIndex
from kerrstokes.stokes import averages_coh_sq

RELAX = RelaxationKernel(1.0)


def make_kernel(a_h, b_g):
    return CorrelationKernel(a_h=a_h, b_g=b_g, t=0.0, stokes_index=StokesIndex.S2)


class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        spec = QuadratureSpec()
        assert spec.points % 2 == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"truncation": 10.0},
            {"points": 20000},
            {"points": 2001},
            {"tolerance": 0.0},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


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
    coarse = wk_numeric(kern, RELAX, 4.0, QuadratureSpec(points=4001))
    fine = wk_numeric(kern, RELAX, 4.0, QuadratureSpec(points=40001))
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
        est = mc_coherent_phasor(2000, self.P1, self.P2, t=0.0)
        exact = averages_coh_sq(self.P1, self.P2, 0.0)
        assert est.summary.s0 == pytest.approx(exact.s0, abs=1e-12)
        assert est.summary.s1 == pytest.approx(exact.s1, abs=1e-12)
        assert est.summary.s2 == pytest.approx(-4.0, abs=1e-12)
        assert est.summary.s3 == pytest.approx(0.0, abs=1e-12)

    def test_coherent_states_have_zero_spread(self):
        est = mc_coherent_phasor(500, self.P1, self.P2, t=0.0)
        assert max(est.stderr) <= 1e-12

    def test_reproducible_for_fixed_seed(self):
        a = mc_coherent_phasor(100, self.P1, self.P2, 0.0, seed=9)
        b = mc_coherent_phasor(100, self.P1, self.P2, 0.0, seed=9)
        assert a.summary == b.summary

    def test_single_sample_reports_zero_stderr(self):
        est = mc_coherent_phasor(1, self.P1, self.P2, 0.0)
        assert est.stderr == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_kerr_pulses(self):
        kerr = PulseSpec(n0=1.0, gamma=0.01)
        with pytest.raises(ScenarioContractError):
            mc_coherent_phasor(10, self.P1, kerr, 0.0)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            mc_coherent_phasor(0, self.P1, self.P2, 0.0)


def test_gaussian_envelopes_shift_the_overlap():
    from kerrstokes.pulse import Envelope, EnvelopeShape

    p1 = PulseSpec(n0=4.0, envelope=Envelope(EnvelopeShape.GAUSSIAN, tau_p=2.0))
    p2 = PulseSpec(n0=1.0, envelope=Envelope(EnvelopeShape.SECH, tau_p=1.0))
    est = mc_coherent_phasor(64, p1, p2, t=1.5)
    exact = averages_coh_sq(p1, p2, 1.5)
    np.testing.assert_allclose(
        [est.summary.s0, est.summary.s1, est.summary.s2, est.summary.s3],
        [exact.s0, exact.s1, exact.s2, exact.s3],
        atol=1e-12,
    )
