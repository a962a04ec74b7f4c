"""Response kernels of an electronic Kerr medium with finite relaxation time.

The nonlinear refractive response is modelled as a single exponential
relaxation with time constant ``tau_r``.  Two symmetric correlation kernels
appear in every fluctuation spectrum computed by this package:

    h(tau) = exp(-|tau| / tau_r) / tau_r          (first order)
    g(tau) = (1 + |tau| / tau_r) * h(tau)         (second order)

Both have closed-form Fourier transforms that are powers of a Lorentzian in
the reduced frequency Omega = omega * tau_r:

    integral h(tau) e^{i omega tau} dtau = 2 L(Omega)
    integral g(tau) e^{i omega tau} dtau = 4 L(Omega)^2
    L(Omega) = 1 / (1 + Omega^2)

All functions accept scalars or numpy arrays and preserve the input kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RelaxationKernel",
    "lorentzian",
    "fourier_h_closed",
    "fourier_g_closed",
]


def lorentzian(omega):
    """Dimensionless Lorentzian L(Omega) = 1 / (1 + Omega^2).

    ``omega`` is the reduced (angular) frequency in units of 1 / tau_r.
    """
    return 1.0 / (1.0 + omega * omega)


def fourier_h_closed(omega):
    """Closed-form Fourier transform of h at reduced frequency Omega."""
    return 2.0 * lorentzian(omega)


def fourier_g_closed(omega):
    """Closed-form Fourier transform of g at reduced frequency Omega."""
    lor = lorentzian(omega)
    return 4.0 * lor * lor


@dataclass(frozen=True)
class RelaxationKernel:
    """Exponentially relaxing Kerr response with relaxation time ``tau_r`` > 0
    (default 1, so that Omega = omega * tau_r is the frequency itself)."""

    tau_r: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.tau_r, (int, float)) and math.isfinite(self.tau_r)):
            raise ValueError(f"tau_r must be a finite number, got {self.tau_r!r}")
        if self.tau_r <= 0.0:
            raise ValueError(f"tau_r must be positive, got {self.tau_r}")

    def h(self, tau):
        """First-order kernel h(tau); unit integral, peak 1/tau_r at tau = 0."""
        return np.exp(-np.abs(tau) / self.tau_r) / self.tau_r

    def g(self, tau):
        """Second-order kernel g(tau) = (1 + |tau|/tau_r) h(tau)."""
        scaled = np.abs(tau) / self.tau_r
        return (1.0 + scaled) * np.exp(-scaled) / self.tau_r
