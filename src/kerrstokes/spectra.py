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
take the pulses at the analysis time, as :class:`~kerrstokes.pulse.LocalPulse`
records, and return ``coefficients(phi_free) -> (a_h, b_g)``, where
phi_free is the linear phase of the family's free pulse (phi_lin2,
phi_lin1 and the probe's phi_lin3 respectively).  The single-port family
always reads the cross phases phix: xpm hands it ``pulse.at(t)``, and
coh_sq and two_sq hand it the records with gamma_x set to 0
(``pulse._spm``), so any gamma_x of theirs is ignored.  The beam-splitter
families read the SPM phases phi alone, so they ignore gamma_x too.  The
five ``kernel_*`` builders take pulses and a time, pass the families their
records, and evaluate them at the configured phase; the phase scan in
:mod:`kerrstokes.optimize` evaluates it on an ndarray of offset phases, so
both share one interference angle and one formula per family.  A family
called on a float angle takes its sines, cosines and squares from libm
(``math.sin``, ``math.cos``, ``pow``); on an ndarray it takes them from numpy
(``np.sin``, ``np.cos``, ``np.float_power``).  The two give the same bits, which
``tests/test_spectra.py`` checks on seeded draws of every family.  The
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

from .errors import _finite_number
from .kernel import lorentzian
from .pulse import LocalPulse, PulseSpec, _spm
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
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


def _kernel(family, phi_free) -> CorrelationKernel:
    a_h, b_g = family(phi_free)
    return CorrelationKernel(float(a_h), float(b_g))


def _float_sin(x):
    """math.sin, except at an infinite angle, where numpy's nan (and its
    RuntimeWarning) stand in for libm's domain error."""
    try:
        return math.sin(x)
    except ValueError:
        return np.sin(x)


def _float_cos(x):
    """math.cos, with numpy's nan at an infinite angle (see :func:`_float_sin`)."""
    try:
        return math.cos(x)
    except ValueError:
        return np.cos(x)


def _float_square(x):
    """x^2 through libm pow (a Python float's ``**``)."""
    return x**2


def _array_square(x):
    """x^2 through libm pow: ``ndarray ** 2`` rounds as x * x, which differs
    from pow(x, 2) by one ulp for about 0.1 % of arguments."""
    return np.float_power(x, 2)


_FLOAT_OPS = (_float_sin, _float_cos, _float_square)
_ARRAY_OPS = (np.sin, np.cos, _array_square)


def _ops(angle):
    """(sin, cos, square) for ``angle``: libm on a float, numpy on anything else.

    Both round alike (checked on seeded draws of every family), so a scalar
    and an array evaluation of a kernel agree bit for bit.  A numpy ufunc on
    a float costs about four times the libm call, and the numpy scalar it
    returns slows every product that follows.
    """
    return _FLOAT_OPS if isinstance(angle, float) else _ARRAY_OPS


# Each family computes what does not depend on phi_free once, when it is
# built.  A Python float squared past the double range raises OverflowError
# where a numpy scalar gives inf; each family saturates its Kerr weight to
# inf, which the kernel builders and the phase scan reject with a ValueError.


def single_port_family(a: LocalPulse, b: LocalPulse, index: StokesIndex):
    """Single-port coefficients of pulses ``a`` and ``b`` as a function of phi_lin2.

    With theta = Phi1(t) - Phi2(t), the total phases with their XPM shifts:

    a_h = (nbar1 phi2 - nbar2 phi1) sin(2 theta)
    b_g = (nbar1 [phi2^2 + phix2^2] + nbar2 [phi1^2 + phix1^2]) sin(theta)^2

    two_sq is the case gamma_x = 0 (phix = 0) and coh_sq additionally has
    phi1 = 0; the vanishing terms drop out exactly, so all three kinds share
    these bits.  S3 advances theta by pi/2.  S0 and S1 are photon-number observables,
    conserved here, so their coefficients are 0 at every phase.
    """
    if not isinstance(index, StokesIndex):
        raise ValueError(f"index must be a StokesIndex, got {index!r}")
    if index in (StokesIndex.S0, StokesIndex.S1):
        return lambda phi_lin2: (0.0, 0.0)
    n1, n2, phi1, phi2, phix1, phix2 = a.nbar, b.nbar, a.phi, b.phi, a.phix, b.phix
    imbalance = n1 * phi2 - n2 * phi1
    try:
        weight = n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)
    except OverflowError:
        weight = math.inf
    phase1 = a.total()
    kerr2 = b.kerr()
    s3 = index is StokesIndex.S3

    def coefficients(phi_lin2):
        theta = phase1 - (kerr2 + phi_lin2)
        if s3:
            theta = theta + HALF_PI
        sin, _, square = _ops(theta)
        return imbalance * sin(2.0 * theta), weight * square(sin(theta))

    return coefficients


def bs_s01_family(a: LocalPulse, b: LocalPulse, bs, which: StokesIndex):
    """Beam-splitter S0 / S1 coefficients of inputs ``a`` and ``b`` as a
    function of phi_lin1.

    Only the two Kerr pulses mixed on the splitter contribute; the probe on
    the other polarization cancels out of the photon-number observables.
    ``which`` selects the relative sign of the transmitted-pulse term:
    + for S0, - for S1.  The model has no cross coupling, so the phases are
    the SPM ones, Phi = phi + phi_lin, whatever gamma_x a record carries.
    With dphi = Phi1(t) - Phi2(t):

    a_h = -( 2 sqrt(R T nbar1 nbar2) [R phi1 +/- T phi2] cos(dphi)
             + R T [nbar1 phi2 - nbar2 phi1] sin(2 dphi) )
    b_g = R T [nbar1 phi2^2 + nbar2 phi1^2] cos(dphi)^2
    """
    if which not in (StokesIndex.S0, StokesIndex.S1):
        raise ValueError(f"which must be S0 or S1, got {which!r}")
    _require_unit_split(bs)
    ref, trans = bs.r, bs.t
    sign = 1.0 if which is StokesIndex.S0 else -1.0
    n1, n2, phi1, phi2 = a.nbar, b.nbar, a.phi, b.phi
    beat = 2.0 * math.sqrt(ref * trans) * math.sqrt(n1 * n2) * (ref * phi1 + sign * trans * phi2)
    spm = ref * trans * (n1 * phi2 - n2 * phi1)
    try:
        weight = ref * trans * (n1 * phi2**2 + n2 * phi1**2)
    except OverflowError:
        weight = math.inf
    kerr1 = a.phi
    total2 = b.phi + b.phi_lin

    def coefficients(phi_lin1):
        dphi = (kerr1 + phi_lin1) - total2
        sin, cos, square = _ops(dphi)
        cos_dphi = cos(dphi)
        return -(beat * cos_dphi + spm * sin(2.0 * dphi)), weight * square(cos_dphi)

    return coefficients


def bs_s2_family(a: LocalPulse, b: LocalPulse, c: LocalPulse, bs, index: StokesIndex):
    """Beam-splitter S2 / S3 coefficients of inputs ``a``, ``b`` and probe ``c``
    as a function of the probe phase phi_lin3.

    The coherent probe (pulse 3) beats against the monitored output port.
    With the SPM phases Phi_j = phi_j + phi_lin_j (see :func:`bs_s01_family`)
    and psi_j = Phi_j(t) - phi_lin3, both advanced by pi/2 for S3:

    a_h = nbar3 ( R phi1 sin(2 psi1) - T phi2 sin(2 psi2) )
    b_g = nbar3 ( R phi1^2 cos(psi1)^2 + T phi2^2 sin(psi2)^2 )
    """
    if index not in (StokesIndex.S2, StokesIndex.S3):
        raise ValueError(f"index must be S2 or S3, got {index!r}")
    _require_unit_split(bs)
    _require_coherent(c, "probe pulse 3")
    ref, trans = bs.r, bs.t
    n3, phi1, phi2 = c.nbar, a.phi, b.phi
    try:
        weight1, weight2 = ref * phi1**2, trans * phi2**2
    except OverflowError:
        weight1 = weight2 = math.inf
    total1 = a.phi + a.phi_lin
    total2 = b.phi + b.phi_lin
    s3 = index is StokesIndex.S3

    def coefficients(phi_lin3):
        psi1 = total1 - phi_lin3
        psi2 = total2 - phi_lin3
        if s3:
            psi1 = psi1 + HALF_PI
            psi2 = psi2 + HALF_PI
        sin, cos, square = _ops(psi1)
        a_h = n3 * (ref * phi1 * sin(2.0 * psi1) - trans * phi2 * sin(2.0 * psi2))
        b_g = n3 * (weight1 * square(cos(psi1)) + weight2 * square(sin(psi2)))
        return a_h, b_g

    return coefficients


def kernel_coh_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Coherent pulse 1 + Kerr pulse 2: phi1 = 0, so theta = phi_lin1 - Phi2(t),
    a_h = nbar1 phi2 sin(2 theta) and b_g = nbar1 phi2^2 sin(theta)^2."""
    _require_coherent(p1, "pulse 1")
    return _kernel(single_port_family(*_spm(t, p1, p2), index), p2.phi_lin)


def kernel_two_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Two independently Kerr-propagated pulses (phix = 0, gamma_x is ignored)."""
    return _kernel(single_port_family(*_spm(t, p1, p2), index), p2.phi_lin)


def kernel_xpm(
    p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """Co-propagating pulses with SPM and mutual XPM: the XPM-shifted theta;
    the cross couplings enter b_g only."""
    return _kernel(single_port_family(p1.at(t), p2.at(t), index), p2.phi_lin)


def kernel_bs_s01(
    p1: PulseSpec, p2: PulseSpec, bs, t: float, which: StokesIndex = StokesIndex.S0
) -> CorrelationKernel:
    """S0 / S1 fluctuations of the beam-splitter scenario (see :func:`bs_s01_family`)."""
    return _kernel(bs_s01_family(p1.at(t), p2.at(t), bs, which), p1.phi_lin)


def kernel_bs_s2(
    p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float, index: StokesIndex = StokesIndex.S2
) -> CorrelationKernel:
    """S2 / S3 fluctuations of the beam-splitter scenario (see :func:`bs_s2_family`)."""
    return _kernel(bs_s2_family(p1.at(t), p2.at(t), p3.at(t), bs, index), p3.phi_lin)


def _spectrum_from_lorentzian(a_h, b_g, lor):
    """S = 1 + 2 L a_h + 4 L^2 b_g for a given L = lorentzian(Omega); any argument
    may be an ndarray."""
    return 1.0 + 2.0 * lor * a_h + 4.0 * lor * lor * b_g


def spectrum_value(kern: CorrelationKernel, omega) -> float:
    """S(Omega) = 1 + 2 L a_h + 4 L^2 b_g at a single reduced frequency."""
    return _spectrum_from_lorentzian(kern.a_h, kern.b_g, lorentzian(omega))


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
    if not np.isfinite(grid).all():
        raise ValueError("omega_grid must be finite")
    if grid[0] < 0.0:
        raise ValueError(f"omega_grid must be non-negative, starts at {grid[0]}")
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError("omega_grid must be strictly ascending")
    if not (_finite_number(reference_intensity) and reference_intensity > 0.0):
        raise ValueError(
            f"reference_intensity must be a positive finite number, got {reference_intensity!r}"
        )
    values = _spectrum_from_lorentzian(kern.a_h, kern.b_g, lorentzian(grid))
    normalized = (values - 1.0) / reference_intensity
    if not np.isfinite(normalized).all():
        raise ValueError(f"S* = (S - 1) / {reference_intensity!r} is not finite on the grid")
    return SpectrumSeries(grid, values, normalized, float(reference_intensity))
