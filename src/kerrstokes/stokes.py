"""Average quantum Stokes parameters after Kerr propagation.

Two field components (orthogonal polarizations, or two ports) are measured
at a common analysis time t.  The scenario kinds fall into two families:

* single-port: ``averages_xpm`` (co-propagating pulses with self- and
  cross-phase modulation), ``averages_two_sq`` (no cross coupling) and
  ``averages_coh_sq`` (pulse 1 coherent), each a special case of the one
  before, so the three wrap one body, which always reads the cross
  coupling: two_sq and coh_sq hand it records with gamma_x set to 0.
* beam splitter: ``averages_bs``, two Kerr pulses mixed on a beam
  splitter, with a coherent probe overlapped on one output port.  Its
  body reads the SPM phases phi + phi_lin alone, so gamma_x is ignored.

The Kerr interaction rotates the mean phasor of each pulse by its nonlinear
phase and shrinks it by exp(-mu); the formulas below are the resulting
first-moment expressions.  Each function returns a :class:`StokesSummary`
with the four averages, the Poincare-sphere radius sqrt(s1^2 + s2^2 + s3^2)
and the degree of polarization radius / s0 (nan for vacuum input).

Two input contracts are written here once each, as a function that returns
the violation text or None: ``_coherent_issue`` (a reference or probe
pulse must be coherent, gamma == 0) and ``_unit_split_issue`` (a lossless
splitter, r + t = 1 within BS_UNITARITY_TOL).  The averages, kernels and
optimizers raise that text as a ScenarioContractError through
``_require_coherent`` and ``_require_unit_split``; scenario validation
reports it on the config field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScenarioContractError
from .pulse import LocalPulse, PulseSpec, _spm

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


def _coherent_issue(pulse: PulseSpec | LocalPulse, role: str) -> str | None:
    """Why ``pulse``, in the role ``role``, is not the coherent (gamma == 0)
    pulse a kind needs, or None.  The API raises it; validation reports it."""
    if pulse.gamma != 0.0:
        return f"{role} must be coherent (gamma == 0), got {pulse.gamma}"
    return None


def _unit_split_issue(bs) -> str | None:
    """Why the splitter ``bs`` is not lossless (r + t = 1), or None."""
    total = bs.r + bs.t
    if abs(total - 1.0) > BS_UNITARITY_TOL:
        return f"r + t must equal 1 within {BS_UNITARITY_TOL:g}, got {total!r}"
    return None


def _require_coherent(pulse: PulseSpec | LocalPulse, role: str) -> None:
    if issue := _coherent_issue(pulse, role):
        raise ScenarioContractError(issue)


def _require_unit_split(bs) -> None:
    if issue := _unit_split_issue(bs):
        raise ScenarioContractError(issue)


def _single_port_averages(a: LocalPulse, b: LocalPulse) -> StokesSummary:
    """s2 + i s3 = 2 sqrt(nbar1 nbar2) exp(-(delta1 + delta2)) exp(i [Phi2 - Phi1])
    for pulses ``a`` and ``b`` at the analysis time.

    delta = mu + mux: cross coupling adds its own damping exponent mux per
    pulse and shifts each total phase by -phix (both 0 when gamma_x = 0).
    """
    n1, n2 = a.nbar, b.nbar
    angle = b.total() - a.total()
    delta1, delta2 = a.mu + a.mux, b.mu + b.mux
    amp = 2.0 * math.sqrt(n1 * n2) * math.exp(-(delta1 + delta2))
    return StokesSummary.from_components(
        n1 + n2, n1 - n2, amp * math.cos(angle), amp * math.sin(angle)
    )


def averages_coh_sq(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Coherent pulse 1 overlapped with Kerr-propagated pulse 2:
    s2 + i s3 = 2 sqrt(nbar1 nbar2) exp(-mu2) exp(i [Phi2 - phi_lin1])."""
    _require_coherent(p1, "pulse 1")
    return _single_port_averages(*_spm(t, p1, p2))


def averages_two_sq(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Two independently Kerr-propagated pulses; gamma_x is ignored."""
    return _single_port_averages(*_spm(t, p1, p2))


def averages_xpm(p1: PulseSpec, p2: PulseSpec, t: float) -> StokesSummary:
    """Co-propagating pulses with SPM and mutual XPM."""
    return _single_port_averages(p1.at(t), p2.at(t))


def averages_bs(p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float) -> StokesSummary:
    """Kerr pulses 1 and 2 mixed on a beam splitter (intensity split r : t),
    coherent probe pulse 3 overlapped with the monitored output port.

    The monitored port carries r nbar1 + t nbar2 plus an interference term
    between the two Kerr pulses; beating of that port against the probe
    produces s2 and s3.
    """
    _require_unit_split(bs)
    _require_coherent(p3, "probe pulse 3")
    return _bs_averages(p1.at(t), p2.at(t), p3.at(t), bs)


def _bs_averages(a: LocalPulse, b: LocalPulse, c: LocalPulse, bs) -> StokesSummary:
    """The body of :func:`averages_bs` for records ``a``, ``b`` and ``c`` at
    the analysis time; the caller has checked r + t = 1 and a coherent probe.
    The phases are the SPM ones, phi + phi_lin: the model has no cross coupling."""
    ref, trans = bs.r, bs.t
    n1, n2, n3 = a.nbar, b.nbar, c.nbar
    mu1, mu2 = a.mu, b.mu
    phase1, phase2 = a.phi + a.phi_lin, b.phi + b.phi_lin
    probe_phase = c.phi_lin

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
