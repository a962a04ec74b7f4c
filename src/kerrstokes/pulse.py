"""Pulse parameterization: envelopes, photon numbers, Kerr phases and damping.

A pulse is described by its peak photon number ``n0``, a normalized envelope
r(t) with r(0) = 1, an effective self-phase-modulation coupling ``gamma``
(Kerr coefficient integrated over the propagation length, per photon), an
optional cross-phase-modulation coupling ``gamma_x`` picked up from a
co-propagating partner pulse, and a linear phase ``phi_lin``.

Every quantity of the model is local in pulse time.  ``PulseSpec.at(t)``
evaluates the envelope once and returns a :class:`LocalPulse` record, the
only route from a pulse to these quantities:

    nbar(t)  = n0 r(t)^2                 mean photon number
    phi(t)   = 2 gamma  nbar(t)          SPM-induced nonlinear phase
    mu(t)    = gamma^2  nbar(t) / 2      SPM coherence damping exponent
    phix(t)  = 2 gamma_x nbar(t)         XPM-induced nonlinear phase
    mux(t)   = gamma_x^2 nbar(t) / 2     XPM coherence damping exponent

``LocalPulse.total`` composes the accumulated optical phase phi - phix +
phi_lin, the cross-Kerr shift of the partner pulse entering with the
opposite sign to the self-action term.  Cross coupling is data, not a mode:
a kind without XPM reads records whose gamma_x is 0 (``_spm`` evaluates
pulses so), where phix and mux are 0 and the same formulas hold.
``LocalPulse.with_phase`` moves a record's linear phase as
``PulseSpec.with_phase`` moves a pulse's.  The record stores nbar and the
pulse's constants; phi, mu, phix and mux are computed when read, so a
consumer never computes a quantity (or overflows on one) that it does not
use.  With an ndarray of times every field and quantity is an array over t.

The weak-coupling rule is written once, in ``_weak_coupling_issues``: one
(field name, message) per coupling above GAMMA_WEAK_LIMIT.  A pulse warns
each as an ApproximationWarning ``<field>: <message>`` when it is built;
scenario validation reports each on the config field (``pulse2.gamma``).
"""

from __future__ import annotations

import copy
import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ApproximationWarning, _finite_number

__all__ = ["EnvelopeShape", "Envelope", "LocalPulse", "PulseSpec", "GAMMA_WEAK_LIMIT"]

# Beyond this per-photon coupling the weak-nonlinearity expansion that
# underlies the closed-form spectra starts to lose accuracy.
GAMMA_WEAK_LIMIT = 0.1


def _weak_coupling_issues(pulse) -> list[tuple[str, str]]:
    """One (field name, message) per coupling of ``pulse`` above
    GAMMA_WEAK_LIMIT.  The pulse warns each as an ApproximationWarning when
    built; scenario validation reports each as a warning on its field."""
    return [
        (name, f"{value:g} exceeds the weak-coupling regime ({name} <= "
               f"{GAMMA_WEAK_LIMIT}); results are perturbative")
        for name, value in (("gamma", pulse.gamma), ("gamma_x", pulse.gamma_x))
        if value > GAMMA_WEAK_LIMIT
    ]


class EnvelopeShape(enum.Enum):
    CONSTANT = "constant"
    GAUSSIAN = "gaussian"
    SECH = "sech"


def _unsigned_zero(value):
    """``value`` with a negative zero stored as +0.0, so that the sign of an
    exact-zero output does not depend on how an input zero was written.  Only
    -0.0 is replaced: an int 0 stays an int, and None stays None."""
    return 0.0 if value == 0 and math.copysign(1.0, value) < 0.0 else value


@dataclass(frozen=True)
class Envelope:
    """Normalized amplitude envelope r(t) with r(0) = 1.

    ``tau_p`` is the duration parameter; it is required (and positive) for
    the gaussian and sech shapes and ignored for the constant one.
    """

    shape: EnvelopeShape = EnvelopeShape.CONSTANT
    tau_p: float | None = None

    def __post_init__(self):
        if not isinstance(self.shape, EnvelopeShape):
            raise ValueError(f"shape must be an EnvelopeShape, got {self.shape!r}")
        if self.shape is not EnvelopeShape.CONSTANT:
            tau_p = self.tau_p
            if not (_finite_number(tau_p) and tau_p > 0.0):
                raise ValueError(
                    f"{self.shape.value} envelope needs tau_p > 0, got {self.tau_p!r}"
                )
            if self.shape is EnvelopeShape.GAUSSIAN and 2.0 * self.tau_p * self.tau_p == 0.0:
                # amplitude() divides by 2 tau_p^2, which would underflow to 0
                raise ValueError(f"gaussian envelope needs 2 tau_p^2 > 0, got {self.tau_p!r}")

    def amplitude(self, t):
        """Envelope value r(t); accepts scalars or arrays."""
        if self.shape is EnvelopeShape.CONSTANT:
            return t * 0.0 + 1.0
        if self.shape is EnvelopeShape.GAUSSIAN:
            return np.exp(-(t * t) / (2.0 * self.tau_p * self.tau_p))
        with np.errstate(over="ignore"):  # cosh overflows to inf far out: r = 0
            return 1.0 / np.cosh(t / self.tau_p)


@dataclass(frozen=True)
class PulseSpec:
    """One pulse entering a Kerr medium.

    Parameters
    ----------
    n0 : peak mean photon number, >= 0.
    envelope : normalized amplitude envelope.
    gamma : per-photon SPM coupling, >= 0.  A value of 0 marks a coherent
        (linearly propagating) pulse.
    gamma_x : per-photon XPM coupling from a partner pulse, >= 0.  Only
        meaningful in the cross-Kerr scenario.
    phi_lin : linear (Kerr-independent) phase in radians.

    Each of the four numbers must be a finite int or float; a bool is not a
    number and is refused.  A -0.0 in any of them is stored as +0.0.
    """

    n0: float
    envelope: Envelope = Envelope()
    gamma: float = 0.0
    gamma_x: float = 0.0
    phi_lin: float = 0.0

    def __post_init__(self):
        for name in ("n0", "gamma", "gamma_x", "phi_lin"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, _unsigned_zero(value))
        if self.n0 < 0.0:
            raise ValueError(f"n0 must be >= 0, got {self.n0}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.gamma_x < 0.0:
            raise ValueError(f"gamma_x must be >= 0, got {self.gamma_x}")
        if not isinstance(self.envelope, Envelope):
            raise ValueError(f"envelope must be an Envelope, got {self.envelope!r}")
        for name, message in _weak_coupling_issues(self):
            warnings.warn(f"{name}: {message}", ApproximationWarning, stacklevel=2)

    def mean_photons(self, t):
        """nbar(t) = n0 r(t)^2."""
        amp = self.envelope.amplitude(t)
        return self.n0 * amp * amp

    def at(self, t) -> "LocalPulse":
        """This pulse at time t (a float or an ndarray): one envelope evaluation."""
        return LocalPulse(self.mean_photons(t), self.gamma, self.gamma_x, self.phi_lin)

    def with_phase(self, phi_lin: float) -> "PulseSpec":
        """Copy of this pulse with another linear phase.

        Only the new phase is checked: the couplings are unchanged, so the
        weak-coupling warning of the original is not issued again.
        """
        if not _finite_number(phi_lin):
            raise ValueError(f"phi_lin must be a finite number, got {phi_lin!r}")
        clone = copy.copy(self)
        object.__setattr__(clone, "phi_lin", _unsigned_zero(phi_lin))
        return clone


class LocalPulse(NamedTuple):
    """A pulse at one time t: its photon number and constants, and the
    quantities of the module docstring, each computed when read."""

    nbar: float
    gamma: float
    gamma_x: float
    phi_lin: float

    @property
    def phi(self):
        """SPM phase 2 gamma nbar."""
        return 2.0 * self.gamma * self.nbar

    @property
    def mu(self):
        """SPM damping exponent gamma^2 nbar / 2."""
        return self.gamma * self.gamma * self.nbar / 2.0

    @property
    def phix(self):
        """XPM phase 2 gamma_x nbar."""
        return 2.0 * self.gamma_x * self.nbar

    @property
    def mux(self):
        """XPM damping exponent gamma_x^2 nbar / 2."""
        return self.gamma_x * self.gamma_x * self.nbar / 2.0

    def kerr(self):
        """Nonlinear part of the optical phase: phi - phix.

        The cross-Kerr contribution enters with the opposite sign to the
        self-action term, reflecting the relative sign of the two couplings
        in the interaction picture used here.
        """
        return self.phi - self.phix

    def total(self):
        """Accumulated optical phase: kerr() + phi_lin."""
        return self.kerr() + self.phi_lin

    def with_phase(self, phi_lin) -> "LocalPulse":
        """This record with another linear phase, as ``PulseSpec.with_phase``
        moves a pulse; the phase is not checked."""
        return self._replace(phi_lin=phi_lin)


def _spm(t, *pulses) -> tuple[LocalPulse, ...]:
    """Each pulse at time t with its cross coupling gamma_x set to 0: the
    records of a kind without XPM, which ignores any gamma_x."""
    return tuple(p.at(t)._replace(gamma_x=0.0) for p in pulses)
