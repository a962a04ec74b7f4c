"""Independent numerical cross-checks for the closed-form results.

Two deliberately separate routes live here and must never be folded into
the analytic code paths they validate:

* :func:`wk_numeric` computes the fluctuation spectrum directly as the
  Fourier integral of the correlation kernel (composite Simpson rule on a
  symmetric truncated grid, implemented in this module in a few lines of
  numpy), bypassing the Lorentzian closed forms.
* :func:`mc_coherent_phasor` forms average Stokes parameters of two
  overlapped coherent pulses from complex phasor arithmetic on their two
  amplitudes, bypassing the trigonometric mean-value formulas.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ScenarioContractError
from .kernel import RelaxationKernel
from .pulse import PulseSpec
from .spectra import CorrelationKernel
from .stokes import StokesSummary

__all__ = ["wk_numeric", "mc_coherent_phasor"]


# The integrand is truncated at |tau| = QUADRATURE_TRUNCATION * tau_r; with
# the exponential kernels the tail beyond 20 relaxation times is below 1e-8
# of the peak.  QUADRATURE_POINTS keeps the Simpson rule's error under
# QUADRATURE_TOLERANCE for reduced frequencies up to ~10.
QUADRATURE_TRUNCATION = 40.0
QUADRATURE_POINTS = 20001
QUADRATURE_TOLERANCE = 1e-6


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
    points: int = QUADRATURE_POINTS,
) -> float:
    """Spectrum S(Omega) by direct quadrature of the correlation kernel.

    Integrates [a_h h(tau) + b_g g(tau)] e^{i omega tau / tau_r} over the
    truncated symmetric window and adds the delta-term contribution of 1.
    The grid is built around tau = 0 so positive and negative nodes pair
    exactly; the imaginary part then cancels by evenness and is required
    to come out below 1e-12.  ``points``, the number of Simpson nodes, must
    be odd and at least 4001.
    """
    if not isinstance(points, int) or points < 4001 or points % 2 == 0:
        raise ValueError(f"points must be an odd integer >= 4001, got {points!r}")
    if not (isinstance(omega, (int, float)) and math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"omega must be a finite number >= 0, got {omega!r}")
    half_width = QUADRATURE_TRUNCATION * relax.tau_r
    mid = points // 2
    step = half_width / mid
    tau = (np.arange(points) - mid) * step
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


def mc_coherent_phasor(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Stokes averages of two overlapped *coherent* pulses by phasor arithmetic.

    In the normally ordered (measured-noise) convention a coherent state
    contributes the single deterministic phasor alpha = sqrt(nbar) e^{i
    phi_lin}, so the averages are exact functions of the two alphas:
    s0, s1 = |alpha1|^2 +/- |alpha2|^2 and s2 + i s3 = 2 conj(alpha1) alpha2.
    The value of the check is the independent route: complex phasor
    arithmetic instead of the closed trigonometric expressions.  Pulses with
    Kerr coupling are rejected, because their phasor distribution is no
    longer a point mass.
    """
    for pulse, role in ((p1, "pulse 1"), (p2, "pulse 2")):
        if pulse.gamma != 0.0 or pulse.gamma_x != 0.0:
            raise ScenarioContractError(
                f"mc_coherent_phasor needs coherent pulses; {role} has "
                f"gamma = {pulse.gamma}, gamma_x = {pulse.gamma_x}"
            )
    alpha1 = cmath.rect(math.sqrt(p1.mean_photons(t)), p1.phi_lin)
    alpha2 = cmath.rect(math.sqrt(p2.mean_photons(t)), p2.phi_lin)
    i1 = abs(alpha1) ** 2
    i2 = abs(alpha2) ** 2
    cross = alpha1.conjugate() * alpha2
    return StokesSummary.from_components(i1 + i2, i1 - i2, 2.0 * cross.real, 2.0 * cross.imag)
