"""Stokes-fluctuation correlation kernels and their spectra.

For every scenario and Stokes component the normally ordered two-time
correlation of the Stokes operator at pulse-local times (t, t + tau) reduces
to the universal form

    R(tau) = delta(tau) + a_h * h(tau) + b_g * g(tau),

with h and g the medium kernels from :mod:`kerrstokes.kernel` and scenario
coefficients (a_h, b_g) collected in a :class:`CorrelationKernel`.  The
stationary-in-tau spectrum then follows in closed form,

    S(Omega) = 1 + 2 L(Omega) a_h + 4 L(Omega)^2 b_g,

where Omega = omega * tau_r and L is the Lorentzian line shape.  Values of
S below 1 signal squeezing of the corresponding Stokes component.  The
normalized version S* = (S - 1) / reference_intensity rescales the
squeezing/excess relative to a chosen shot-noise intensity.

The scenario kinds share three kernel families, and each family is one
function: ``single_port_family``, ``bs_s01_family`` and ``bs_s2_family``
take the pulses and return ``coefficients(phi_free) -> (a_h, b_g)``, where
phi_free is the linear phase of the family's free pulse (phi_lin2,
phi_lin1 and the probe's phi_lin3 respectively).  The five ``kernel_*``
builders evaluate their family at the configured phase; the phase scan in
:mod:`kerrstokes.optimize` evaluates it on an ndarray of offset phases, so
both share one interference angle and one formula per family.  The
single-port kinds form the reduction chain xpm -> two_sq -> coh_sq.  The
S3 kernels follow from the S2 ones by advancing every interference angle
by pi/2, which swaps the roles of the cos/sin quadratures; S0 and S1 are
conserved in the single-port family, whose coefficients are then 0 at
every phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kernel import lorentzian
from .pulse import PulseSpec
from .stokes import _require_coherent, _require_unit_split

__all__ = [
    "StokesIndex",
    "CorrelationKernel",
    "SpectrumSeries",
    "kernel_coh_sq",
    "kernel_two_sq",
    "kernel_xpm",
    "kernel_bs_s01",
    "kernel_bs_s2",
    "single_port_family",
    "bs_s01_family",
    "bs_s2_family",
    "spectrum",
    "spectrum_from_coefficients",
    "spectrum_value",
]

HALF_PI = 0.5 * math.pi


class StokesIndex(enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


@dataclass(frozen=True)
class CorrelationKernel:
    """Coefficients of R(tau) = delta(tau) + a_h h(tau) + b_g g(tau)."""

    a_h: float
    b_g: float

    def __post_init__(self):
        for name in ("a_h", "b_g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


def _kernel(family, phi_free) -> CorrelationKernel:
    a_h, b_g = family(phi_free)
    return CorrelationKernel(float(a_h), float(b_g))


def _square(x):
    """x^2 through libm pow, like Python's float ``**``.

    ``ndarray ** 2`` rounds as x * x, which differs from pow(x, 2) by one
    ulp for about 0.1 % of arguments; float_power keeps array and scalar
    evaluations of the kernels bit-identical.  A numpy scalar's ``**``
    already calls pow, at a tenth of float_power's cost.
    """
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x**2


def _single_port_scalars(p1: PulseSpec, p2: PulseSpec, t: float, include_xpm: bool):
    """(nbar1, nbar2, phi1, phi2, phix1, phix2); phix = 0.0 without ``include_xpm``."""
    phix = (p1.xpm_phase(t), p2.xpm_phase(t)) if include_xpm else (0.0, 0.0)
    return (
        p1.mean_photons(t), p2.mean_photons(t), p1.spm_phase(t), p2.spm_phase(t), *phix
    )


# Each family computes what does not depend on phi_free once, when it is
# built.  A Python float squared past the double range raises OverflowError
# where a numpy scalar gives inf; each family saturates its Kerr weight to
# inf, which the kernel builders and the phase scan reject with a ValueError.


def single_port_family(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex, include_xpm: bool
):
    """Single-port coefficients as a function of phi_lin2.

    With theta = Phi1(t) - Phi2(t), the total phases taken with the XPM
    shift when ``include_xpm`` is set (phix = 0 otherwise):

    a_h = (nbar1 phi2 - nbar2 phi1) sin(2 theta)
    b_g = (nbar1 [phi2^2 + phix2^2] + nbar2 [phi1^2 + phix1^2]) sin(theta)^2

    two_sq is the case phix = 0 and coh_sq additionally has phi1 = 0; the
    vanishing terms drop out exactly, so all three kinds share these bits.
    S3 advances theta by pi/2.  S0 and S1 are photon-number observables,
    conserved here, so their coefficients are 0 at every phase.
    """
    if not isinstance(index, StokesIndex):
        raise ValueError(f"index must be a StokesIndex, got {index!r}")
    if index in (StokesIndex.S0, StokesIndex.S1):
        return lambda phi_lin2: (0.0, 0.0)
    n1, n2, phi1, phi2, phix1, phix2 = _single_port_scalars(p1, p2, t, include_xpm)
    imbalance = n1 * phi2 - n2 * phi1
    try:
        weight = n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)
    except OverflowError:
        weight = math.inf
    phase1 = p1.total_phase(t, include_xpm)
    kerr2 = p2.kerr_phase(t, include_xpm)
    s3 = index is StokesIndex.S3

    def coefficients(phi_lin2):
        theta = phase1 - (kerr2 + phi_lin2)
        if s3:
            theta = theta + HALF_PI
        return imbalance * np.sin(2.0 * theta), weight * _square(np.sin(theta))

    return coefficients


def bs_s01_family(p1: PulseSpec, p2: PulseSpec, bs, t: float, which: StokesIndex):
    """Beam-splitter S0 / S1 coefficients as a function of phi_lin1.

    Only the two Kerr pulses mixed on the splitter contribute; the probe on
    the other polarization cancels out of the photon-number observables.
    ``which`` selects the relative sign of the transmitted-pulse term:
    + for S0, - for S1.  With dphi = Phi1(t) - Phi2(t):

    a_h = -( 2 sqrt(R T nbar1 nbar2) [R phi1 +/- T phi2] cos(dphi)
             + R T [nbar1 phi2 - nbar2 phi1] sin(2 dphi) )
    b_g = R T [nbar1 phi2^2 + nbar2 phi1^2] cos(dphi)^2
    """
    if which not in (StokesIndex.S0, StokesIndex.S1):
        raise ValueError(f"which must be S0 or S1, got {which!r}")
    _require_unit_split(bs)
    ref, trans = bs.r, bs.t
    sign = 1.0 if which is StokesIndex.S0 else -1.0
    n1, n2, phi1, phi2 = p1.mean_photons(t), p2.mean_photons(t), p1.spm_phase(t), p2.spm_phase(t)
    beat = 2.0 * math.sqrt(ref * trans) * math.sqrt(n1 * n2) * (ref * phi1 + sign * trans * phi2)
    spm = ref * trans * (n1 * phi2 - n2 * phi1)
    try:
        weight = ref * trans * (n1 * phi2**2 + n2 * phi1**2)
    except OverflowError:
        weight = math.inf
    kerr1 = p1.kerr_phase(t)
    total2 = p2.total_phase(t)

    def coefficients(phi_lin1):
        dphi = (kerr1 + phi_lin1) - total2
        cos = np.cos(dphi)
        return -(beat * cos + spm * np.sin(2.0 * dphi)), weight * _square(cos)

    return coefficients


def bs_s2_family(
    p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float, index: StokesIndex
):
    """Beam-splitter S2 / S3 coefficients as a function of the probe phase phi_lin3.

    The coherent probe (pulse 3) beats against the monitored output port.
    With psi_j = Phi_j(t) - phi_lin3, both advanced by pi/2 for S3:

    a_h = nbar3 ( R phi1 sin(2 psi1) - T phi2 sin(2 psi2) )
    b_g = nbar3 ( R phi1^2 cos(psi1)^2 + T phi2^2 sin(psi2)^2 )
    """
    if index not in (StokesIndex.S2, StokesIndex.S3):
        raise ValueError(f"index must be S2 or S3, got {index!r}")
    _require_unit_split(bs)
    _require_coherent(p3, "probe pulse 3")
    ref, trans = bs.r, bs.t
    n3, phi1, phi2 = p3.mean_photons(t), p1.spm_phase(t), p2.spm_phase(t)
    try:
        weight1, weight2 = ref * phi1**2, trans * phi2**2
    except OverflowError:
        weight1 = weight2 = math.inf
    total1 = p1.total_phase(t)
    total2 = p2.total_phase(t)
    s3 = index is StokesIndex.S3

    def coefficients(phi_lin3):
        psi1 = total1 - phi_lin3
        psi2 = total2 - phi_lin3
        if s3:
            psi1 = psi1 + HALF_PI
            psi2 = psi2 + HALF_PI
        a_h = n3 * (ref * phi1 * np.sin(2.0 * psi1) - trans * phi2 * np.sin(2.0 * psi2))
        b_g = n3 * (weight1 * _square(np.cos(psi1)) + weight2 * _square(np.sin(psi2)))
        return a_h, b_g

    return coefficients


def kernel_coh_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Coherent pulse 1 + Kerr pulse 2: phi1 = 0, so theta = phi_lin1 - Phi2(t),
    a_h = nbar1 phi2 sin(2 theta) and b_g = nbar1 phi2^2 sin(theta)^2."""
    _require_coherent(p1, "pulse 1")
    return _kernel(single_port_family(p1, p2, t, index, False), p2.phi_lin)


def kernel_two_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Two independently Kerr-propagated pulses (phix = 0, gamma_x is ignored)."""
    return _kernel(single_port_family(p1, p2, t, index, False), p2.phi_lin)


def kernel_xpm(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Co-propagating pulses with SPM and mutual XPM: the XPM-shifted theta;
    the cross couplings enter b_g only."""
    return _kernel(single_port_family(p1, p2, t, index, True), p2.phi_lin)


def kernel_bs_s01(
    p1: PulseSpec, p2: PulseSpec, bs, t: float, which: StokesIndex = StokesIndex.S0
) -> CorrelationKernel:
    """S0 / S1 fluctuations of the beam-splitter scenario (see :func:`bs_s01_family`)."""
    return _kernel(bs_s01_family(p1, p2, bs, t, which), p1.phi_lin)


def kernel_bs_s2(
    p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """S2 / S3 fluctuations of the beam-splitter scenario (see :func:`bs_s2_family`)."""
    return _kernel(bs_s2_family(p1, p2, p3, bs, t, index), p3.phi_lin)


def spectrum_from_coefficients(a_h, b_g, omega):
    """S(Omega) = 1 + 2 L a_h + 4 L^2 b_g; any argument may be an ndarray."""
    return _spectrum_from_lorentzian(a_h, b_g, lorentzian(omega))


def _spectrum_from_lorentzian(a_h, b_g, lor):
    """S = 1 + 2 L a_h + 4 L^2 b_g for a given L = lorentzian(Omega)."""
    return 1.0 + 2.0 * lor * a_h + 4.0 * lor * lor * b_g


def spectrum_value(kern: CorrelationKernel, omega) -> float:
    """S(Omega) = 1 + 2 L a_h + 4 L^2 b_g at a single reduced frequency."""
    return spectrum_from_coefficients(kern.a_h, kern.b_g, omega)


@dataclass(frozen=True)
class SpectrumSeries:
    """Spectrum sampled on an ascending grid of reduced frequencies.

    ``values`` holds S(Omega); ``normalized`` holds
    S*(Omega) = (S - 1) / reference_intensity.
    """

    omega: np.ndarray
    values: np.ndarray
    normalized: np.ndarray
    reference_intensity: float


def spectrum(
    kern: CorrelationKernel, omega_grid, reference_intensity: float = 1.0
) -> SpectrumSeries:
    """Evaluate S and S* on an ascending grid of reduced frequencies >= 0.

    Raises ValueError when S or S* is not finite at some grid point."""
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("omega_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("omega_grid must be finite")
    if grid[0] < 0.0:
        raise ValueError(f"omega_grid must be non-negative, starts at {grid[0]}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("omega_grid must be strictly ascending")
    if not (
        isinstance(reference_intensity, (int, float))
        and math.isfinite(reference_intensity)
        and reference_intensity > 0.0
    ):
        raise ValueError(
            f"reference_intensity must be a positive finite number, got {reference_intensity!r}"
        )
    values = spectrum_from_coefficients(kern.a_h, kern.b_g, grid)
    normalized = (values - 1.0) / reference_intensity
    if not np.isfinite(normalized).all():
        raise ValueError(f"S* = (S - 1) / {reference_intensity!r} is not finite on the grid")
    return SpectrumSeries(grid, values, normalized, float(reference_intensity))
