"""Average quantum Stokes parameters after Kerr propagation.

Two field components (orthogonal polarizations, or two ports) are measured
at a common analysis time t.  The scenario kinds fall into two families:

* single-port: ``averages_xpm`` (co-propagating pulses with self- and
  cross-phase modulation), ``averages_two_sq`` (no cross coupling) and
  ``averages_coh_sq`` (pulse 1 coherent), each a special case of the one
  before, so the three wrap one body.
* beam splitter: ``averages_bs``, two Kerr pulses mixed on a beam
  splitter, with a coherent probe overlapped on one output port.

The Kerr interaction rotates the mean phasor of each pulse by its nonlinear
phase and shrinks it by exp(-mu); the formulas below are the resulting
first-moment expressions.  Each function returns a :class:`StokesSummary`
with the four averages, the Poincare-sphere radius sqrt(s1^2 + s2^2 + s3^2)
and the degree of polarization radius / s0 (nan for vacuum input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScenarioContractError
from .pulse import PulseSpec

__all__ = [
    "StokesSummary",
    "averages_coh_sq",
    "averages_two_sq",
    "averages_xpm",
    "averages_bs",
]

# Beam-splitter intensity coefficients must split the input to this accuracy.
BS_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class StokesSummary:
    s0: float
    s1: float
    s2: float
    s3: float
    poincare_radius: float
    degree_of_polarization: float

    @classmethod
    def from_components(cls, s0: float, s1: float, s2: float, s3: float) -> "StokesSummary":
        """Fill in the radius and the degree of polarization.

        Raises ``ValueError`` when an average or the radius is not finite
        (photon numbers so large that the products overflow); the degree of
        polarization alone may be nan, for vacuum input.
        """
        radius = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
        components = {"s0": s0, "s1": s1, "s2": s2, "s3": s3, "poincare_radius": radius}
        for name, value in components.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"Stokes summary field {name} is not finite ({value}); "
                    "the photon numbers are too large to represent"
                )
        dop = radius / s0 if s0 > 0.0 else math.nan
        return cls(s0, s1, s2, s3, radius, dop)


def _require_coherent(pulse: PulseSpec, role: str) -> None:
    if pulse.gamma != 0.0:
        raise ScenarioContractError(
            f"{role} must be coherent (gamma == 0), got gamma = {pulse.gamma}"
        )


def _require_unit_split(bs) -> None:
    if abs(bs.r + bs.t - 1.0) > BS_UNITARITY_TOL:
        raise ScenarioContractError(
            f"beam splitter must satisfy r + t = 1 within {BS_UNITARITY_TOL}, "
            f"got r + t = {bs.r + bs.t}"
        )


def _single_port_averages(
    p1: PulseSpec, p2: PulseSpec, t: float, include_xpm: bool
) -> StokesSummary:
    """s2 + i s3 = 2 sqrt(nbar1 nbar2) exp(-(delta1 + delta2)) exp(i [Phi2 - Phi1]).

    delta = mu; with ``include_xpm`` cross coupling adds its own damping
    exponent mux per pulse and shifts each total phase by -phix.
    """
    n1 = p1.mean_photons(t)
    n2 = p2.mean_photons(t)
    angle = p2.total_phase(t, include_xpm) - p1.total_phase(t, include_xpm)
    delta1 = p1.spm_damping(t)
    delta2 = p2.spm_damping(t)
    if include_xpm:
        delta1 = delta1 + p1.xpm_damping(t)
        delta2 = delta2 + p2.xpm_damping(t)
    amp = 2.0 * math.sqrt(n1 * n2) * math.exp(-(delta1 + delta2))
    return StokesSummary.from_components(
        n1 + n2, n1 - n2, amp * math.cos(angle), amp * math.sin(angle)
    )


def averages_coh_sq(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Coherent pulse 1 overlapped with Kerr-propagated pulse 2:
    s2 + i s3 = 2 sqrt(nbar1 nbar2) exp(-mu2) exp(i [Phi2 - phi_lin1])."""
    _require_coherent(p1, "pulse 1")
    return _single_port_averages(p1, p2, t, include_xpm=False)


def averages_two_sq(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Two independently Kerr-propagated pulses; gamma_x is ignored."""
    return _single_port_averages(p1, p2, t, include_xpm=False)


def averages_xpm(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Co-propagating pulses with SPM and mutual XPM."""
    return _single_port_averages(p1, p2, t, include_xpm=True)


def averages_bs(p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float) -> StokesSummary:
    """Kerr pulses 1 and 2 mixed on a beam splitter (intensity split r : t),
    coherent probe pulse 3 overlapped with the monitored output port.

    The monitored port carries r nbar1 + t nbar2 plus an interference term
    between the two Kerr pulses; beating of that port against the probe
    produces s2 and s3.
    """
    _require_unit_split(bs)
    _require_coherent(p3, "probe pulse 3")
    ref = bs.r
    trans = bs.t
    n1 = p1.mean_photons(t)
    n2 = p2.mean_photons(t)
    n3 = p3.mean_photons(t)
    mu1 = p1.spm_damping(t)
    mu2 = p2.spm_damping(t)
    phase1 = p1.total_phase(t)
    phase2 = p2.total_phase(t)
    probe_phase = p3.phi_lin

    cross12 = (
        2.0
        * math.sqrt(ref * trans)
        * math.sqrt(n1 * n2)
        * math.exp(-(mu1 + mu2))
        * math.sin(phase2 - phase1)
    )
    port = ref * n1 + trans * n2 + cross12
    amp2 = 2.0 * math.sqrt(trans) * math.sqrt(n2 * n3) * math.exp(-mu2)
    amp1 = 2.0 * math.sqrt(ref) * math.sqrt(n1 * n3) * math.exp(-mu1)
    s2 = amp2 * math.cos(probe_phase - phase2) + amp1 * math.sin(probe_phase - phase1)
    s3 = amp2 * math.sin(probe_phase - phase2) - amp1 * math.cos(probe_phase - phase1)
    return StokesSummary.from_components(port + n3, port - n3, s2, s3)
