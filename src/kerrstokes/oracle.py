"""Independent numerical cross-checks for the closed-form results.

Two deliberately separate routes live here and must never be folded into
the analytic code paths they validate:

* :func:`wk_numeric` computes the fluctuation spectrum directly as the
  Fourier integral of the correlation kernel, bypassing the Lorentzian
  closed forms.  The kernel is even, so the integral is twice a cosine
  transform over tau >= 0 (composite Simpson rule on the truncated half
  grid, implemented in this module in a few lines of numpy); evenness is
  checked bit for bit on every call, not assumed.
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
    omega,
    points: int = QUADRATURE_POINTS,
):
    """Spectrum S(Omega) by direct quadrature of the correlation kernel.

    The kernel k(tau) = a_h h(tau) + b_g g(tau) is even, so its Fourier
    integral over the truncated symmetric window |tau| <= 40 tau_r is twice
    a cosine transform over the half window:

        S(Omega) = 1 + 2 * simpson(k(tau) cos(Omega tau / tau_r)),
        tau = j * step, j = 0 .. points // 2,

    the 1 being the delta-term contribution.  These nodes are the tau >= 0
    half of a ``points``-node grid centred on tau = 0.  The kernel is
    sampled once per call, at tau and at -tau; unless the two samples are
    bit-identical the call raises ArithmeticError, since the cosine form
    holds for an even kernel only.

    ``omega`` is a number or a 1-D array of finite values >= 0, and the
    result is of the same kind: a float, or an array of one S per entry.
    ``points``, the node count of the full grid, must be an integer >= 4001
    with ``points % 4 == 1``, so that the half grid has an odd node count
    and its Simpson sum is half that of the full grid.
    """
    if not isinstance(points, int) or points < 4001 or points % 4 != 1:
        raise ValueError(f"points must be an integer >= 4001 with points % 4 == 1, got {points!r}")
    scalar = isinstance(omega, (int, float))
    values = np.asarray(omega)
    if not (
        (scalar or (values.ndim == 1 and values.dtype.kind in "fiu"))
        and np.all(np.isfinite(values))
        and np.all(values >= 0.0)
    ):
        raise ValueError(f"omega must be a number or a 1-D array, finite and >= 0, got {omega!r}")
    mid = points // 2
    step = QUADRATURE_TRUNCATION * relax.tau_r / mid
    tau = np.arange(mid + 1) * step
    kernel = kern.a_h * relax.h(tau) + kern.b_g * relax.g(tau)
    if not np.array_equal(kernel, kern.a_h * relax.h(-tau) + kern.b_g * relax.g(-tau)):
        raise ArithmeticError("correlation kernel is not even; the cosine transform does not apply")
    work = np.empty_like(tau)
    spectrum = np.empty(values.shape)
    for index, value in np.ndenumerate(values):
        np.multiply(value / relax.tau_r, tau, out=work)
        np.cos(work, out=work)
        work *= kernel
        spectrum[index] = 1.0 + 2.0 * _simpson(work, step)
    return float(spectrum) if scalar else spectrum


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
