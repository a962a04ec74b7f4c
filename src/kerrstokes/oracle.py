"""Independent numerical cross-checks for the closed-form results.

Two deliberately separate routes live here and must never be folded into
the analytic code paths they validate:

* :func:`wk_numeric` computes the fluctuation spectrum directly as the
  Fourier integral of the correlation kernel (composite Simpson rule on a
  symmetric truncated grid, implemented in this module in a few lines of
  numpy), bypassing the Lorentzian closed forms.
* :func:`mc_coherent_phasor` forms average Stokes parameters of two
  overlapped coherent pulses from per-sample phasor arithmetic, bypassing
  the trigonometric mean-value formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioContractError
from .kernel import RelaxationKernel
from .pulse import PulseSpec
from .spectra import CorrelationKernel
from .stokes import StokesSummary

__all__ = ["QuadratureSpec", "wk_numeric", "PhasorEstimate", "mc_coherent_phasor"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings of the composite Simpson rule (:func:`_simpson`) for the
    spectrum integral.

    The integrand is truncated at |tau| = truncation * tau_r; with the
    exponential kernels the tail beyond 20 relaxation times is below
    1e-8 of the peak, so ``truncation`` must be at least 20.  ``points``
    must be odd (composite Simpson) and large enough to keep the rule's
    error under ``tolerance``; the default is comfortably converged for
    reduced frequencies up to ~10.
    """

    truncation: float = 40.0
    points: int = 20001
    tolerance: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.truncation) and self.truncation >= 20.0):
            raise ValueError(f"truncation must be >= 20, got {self.truncation!r}")
        if not isinstance(self.points, int) or self.points < 4001:
            raise ValueError(f"points must be an integer >= 4001, got {self.points!r}")
        if self.points % 2 == 0:
            raise ValueError(f"points must be odd for Simpson's rule, got {self.points}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")


def _simpson(y: np.ndarray, dx: float):
    """Composite Simpson rule (weights 1, 4, 2, ..., 4, 1) over an odd number
    of samples spaced ``dx``.  The slicing and the order of operations are
    those of ``scipy.integrate.simpson`` for an odd count, so both give the
    same bits."""
    n = y.shape[0]
    total = np.sum(y[0 : n - 2 : 2] + 4.0 * y[1 : n - 1 : 2] + y[2:n:2])
    total *= dx / 3.0
    return total


def wk_numeric(
    kern: CorrelationKernel,
    relax: RelaxationKernel,
    omega: float,
    quad: QuadratureSpec | None = None,
) -> float:
    """Spectrum S(Omega) by direct quadrature of the correlation kernel.

    Integrates [a_h h(tau) + b_g g(tau)] e^{i omega tau / tau_r} over the
    truncated symmetric window and adds the delta-term contribution of 1.
    The grid is built around tau = 0 so positive and negative nodes pair
    exactly; the imaginary part then cancels by evenness and is required
    to come out below 1e-12.
    """
    if quad is None:
        quad = QuadratureSpec()
    if not (isinstance(omega, (int, float)) and math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"omega must be a finite number >= 0, got {omega!r}")
    half_width = quad.truncation * relax.tau_r
    mid = quad.points // 2
    step = half_width / mid
    tau = (np.arange(quad.points) - mid) * step
    angular = omega / relax.tau_r
    integrand = (kern.a_h * relax.h(tau) + kern.b_g * relax.g(tau)) * np.exp(
        1j * angular * tau
    )
    integral = complex(_simpson(integrand, step))
    if abs(integral.imag) > 1e-12:
        raise ArithmeticError(
            f"odd-part residue {integral.imag:g} in an even integrand; "
            "quadrature grid is not symmetric"
        )
    return 1.0 + integral.real


@dataclass(frozen=True)
class PhasorEstimate:
    """Monte-Carlo estimate of average Stokes parameters.

    ``stderr`` holds the standard errors of (s0, s1, s2, s3).  ``seed``
    only echoes the argument of ``mc_coherent_phasor``, which draws no
    random numbers.
    """

    summary: StokesSummary
    stderr: tuple[float, float, float, float]
    n_samples: int
    seed: int


def mc_coherent_phasor(
    n_samples: int, p1: PulseSpec, p2: PulseSpec, t: float, seed: int = 12345
) -> PhasorEstimate:
    """Sample-based Stokes averages for two overlapped *coherent* pulses.

    In the normally ordered (measured-noise) convention a coherent state
    contributes a single deterministic phasor alpha = sqrt(nbar) e^{i
    phi_lin}: its phasor distribution is a point mass, so the ``n_samples``
    draws are copies of alpha and the estimator is exact with zero standard
    error.  The value of the check is the independent route: Stokes averages
    are formed from complex phasor arithmetic per sample instead of the
    closed trigonometric expressions.  No random numbers are drawn; ``seed``
    is kept in the estimate for callers that record it.  Pulses with Kerr
    coupling are rejected, because their phasor distribution is no longer a
    point mass.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    for pulse, role in ((p1, "pulse 1"), (p2, "pulse 2")):
        if pulse.gamma != 0.0 or pulse.gamma_x != 0.0:
            raise ScenarioContractError(
                f"mc_coherent_phasor needs coherent pulses; {role} has "
                f"gamma = {pulse.gamma}, gamma_x = {pulse.gamma_x}"
            )
    alpha1 = math.sqrt(p1.mean_photons(t)) * np.exp(1j * p1.phi_lin)
    alpha2 = math.sqrt(p2.mean_photons(t)) * np.exp(1j * p2.phi_lin)
    draws1 = np.full(n_samples, alpha1)
    draws2 = np.full(n_samples, alpha2)

    i1 = np.abs(draws1) ** 2
    i2 = np.abs(draws2) ** 2
    cross = np.conj(draws1) * draws2
    samples = np.stack([i1 + i2, i1 - i2, 2.0 * cross.real, 2.0 * cross.imag])
    means = samples.mean(axis=1)
    if n_samples > 1:
        stderr = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
    else:
        stderr = np.zeros(4)
    summary = StokesSummary.from_components(*(float(m) for m in means))
    return PhasorEstimate(summary, tuple(float(e) for e in stderr), n_samples, seed)
