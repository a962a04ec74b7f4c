"""Phase optimization of Stokes-fluctuation spectra.

Every scenario leaves one experimentally tunable linear phase offset
``delta_phi`` free; the spectra depend on it through interference angles.
For each of the three kernel families (single-port, beam-splitter S0/S1,
beam-splitter S2) this module pairs the closed-form offset that minimizes
S(Omega0) with an independent numerical route: a dense scan over [0, 2pi)
refined by a golden-section search.  Both answers are reported side by
side in a :class:`PhaseOptimum` and never averaged or substituted for one
another; disagreements beyond tolerance are flagged, not hidden.  The
single-port kinds coh_sq, two_sq and xpm share one optimizer body; only
coh_sq keeps a closed form of its own (see :func:`optimal_phase_coh_sq`).

Each family's offset convention is one :class:`Offset` record
``(free, anchor, sign)``, pulses counted from 0: the offset sets the free
pulse's phi_lin to the anchor's plus ``sign * delta_phi``.  The scan here
and :func:`kerrstokes.scenario.run`, which applies the optimum, read it.

* ``SINGLE_PORT_OFFSET = (1, 0, +1)``: delta_phi = phi_lin2 - phi_lin1 (coh_sq, two_sq, xpm)
* ``BS_INPUT_OFFSET = (0, 1, +1)``: delta_phi = phi_lin1 - phi_lin2 (beam-splitter S0/S1)
* ``BS_PROBE_OFFSET = (2, 1, -1)``: delta_phi = phi_lin2 - phi_lin3 (beam-splitter S2/S3)

Each optimizer builds its family (:mod:`kerrstokes.spectra`) for the Stokes
component it is asked for and scans it at the free phase, so the
interference angle is computed where the kernel builders compute it; the
coarse pass evaluates the family once on an ndarray of all offsets, and no
pulse is rebuilt inside a scan.  S3 advances the S2 interference angle by
pi/2, and in every family that angle falls as the free phase rises, so the
S3 closed offset is the S2 one plus ``sign * pi/2``.  S0/S1 of the
single-port family, a pulse pair without Kerr noise and
L(Omega0) = 1 / (1 + Omega0^2) = 0 each make S = 1 at every offset: the
optimum is "degenerate".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioContractError
from .kernel import lorentzian
from .pulse import PulseSpec
from .spectra import (
    HALF_PI,
    StokesIndex,
    _single_port_scalars,
    _spectrum_from_lorentzian,
    bs_s01_family,
    bs_s2_family,
    single_port_family,
    spectrum_from_coefficients,
)
from .stokes import _require_coherent

__all__ = [
    "PhaseOptimum",
    "Offset",
    "SINGLE_PORT_OFFSET",
    "BS_INPUT_OFFSET",
    "BS_PROBE_OFFSET",
    "scan_phase",
    "optimal_phase_coh_sq",
    "optimal_phase_two_sq",
    "optimal_phase_xpm",
    "optimal_phase_bs_s01",
    "optimal_phase_bs_s2",
]

TWO_PI = 2.0 * math.pi

# Coarse-scan offsets over one phase period.
SCAN_RESOLUTION_MIN = 720
# Golden-section refinement terminates on this change in S (not in phase).
SCAN_VALUE_TOL = 1e-12
GOLDEN_MAX_ITER = 300
# Closed form and scan must agree to this before a discrepancy is flagged;
# also the slack allowed in "numeric minimum <= closed minimum".
AGREEMENT_TOL = 1e-9
# Scenario contracts on continuous quantities are enforced to this accuracy.
CONTRACT_TOL = 1e-9

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PhaseOptimum:
    """Result of a phase optimization at a single reduced frequency Omega0.

    ``delta_phi_opt`` is the closed-form offset (nan when the spectrum is
    phase-independent); ``delta_phi_numeric`` and ``s_min_numeric`` come
    from the scan route.  ``agreement`` = |s_min_numeric - s_min_closed|.

    Flags:
        "degenerate"                flat spectrum, optimum is S = 1 trivially
        "arccos-domain"             closed form infeasible (outside [-1, 1]);
                                    numeric route is authoritative
        "closed-form-discrepancy"   |closed - numeric| exceeded tolerance
        "closed-phase-not-minimal"  the spectrum at delta_phi_opt sits above
                                    the scanned minimum
    """

    delta_phi_opt: float
    omega0: float
    s_min_closed: float
    s_min_numeric: float
    agreement: float
    delta_phi_numeric: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Offset:
    """A family's offset convention: at ``delta_phi`` the free pulse
    ``pulses[free]`` has phi_lin = ``pulses[anchor].phi_lin + sign * delta_phi``."""

    free: int
    anchor: int
    sign: float

    def phase(self, pulses, delta_phi):
        """The free pulse's linear phase at ``delta_phi`` (a float or an ndarray)."""
        return pulses[self.anchor].phi_lin + self.sign * delta_phi

    def apply(self, pulses, delta_phi: float) -> tuple[PulseSpec, ...]:
        """``pulses`` with the free pulse moved to the offset ``delta_phi``."""
        moved = list(pulses)
        moved[self.free] = moved[self.free].with_phase(self.phase(pulses, delta_phi))
        return tuple(moved)


SINGLE_PORT_OFFSET = Offset(free=1, anchor=0, sign=1.0)
BS_INPUT_OFFSET = Offset(free=0, anchor=1, sign=1.0)
BS_PROBE_OFFSET = Offset(free=2, anchor=1, sign=-1.0)


def _check_omega0(omega0: float) -> None:
    if not (isinstance(omega0, (int, float)) and math.isfinite(omega0) and omega0 >= 0.0):
        raise ValueError(f"omega0 must be a finite number >= 0, got {omega0!r}")


def _golden_refine(f, a: float, b: float):
    """Golden-section minimization of f on [a, b], unimodal assumed.

    Terminates when the two interior S values agree to SCAN_VALUE_TOL (the
    tolerance is on the spectrum value, not on the phase), or after
    GOLDEN_MAX_ITER steps."""
    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if abs(fc - fd) < SCAN_VALUE_TOL or (b - a) < 1e-14:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLD * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


def scan_phase(coefficients, omega0: float):
    """Numerically minimize S(Omega0) over the phase offset.

    ``coefficients(delta_phi)`` must return the scenario's kernel
    coefficients (a_h, b_g) at that offset and must broadcast: given an
    ndarray of offsets it returns arrays of that shape (or scalars, for a
    phase-independent kernel).  The coarse pass evaluates all
    SCAN_RESOLUTION_MIN offsets of [0, 2pi) in one call and takes the first
    smallest value; golden-section refinement around it then calls
    ``coefficients`` on scalars until the S value converges to
    SCAN_VALUE_TOL.

    Returns (delta_phi, s_min) with delta_phi wrapped into [0, 2pi).
    Raises ValueError when S is not finite at some scanned offset.
    """
    _check_omega0(omega0)
    lor0 = lorentzian(omega0)

    def f(delta_phi):
        return _spectrum_from_lorentzian(*coefficients(delta_phi), lor0)

    step = TWO_PI / SCAN_RESOLUTION_MIN
    offsets = np.arange(SCAN_RESOLUTION_MIN) * step
    values = np.broadcast_to(f(offsets), offsets.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"S({omega0!r}) is not finite at every phase offset: the photon numbers "
            "and Kerr couplings exceed double precision"
        )
    best_i = int(np.argmin(values))
    best_v = values[best_i]
    # Periodicity makes out-of-range bracket edges harmless.
    phi, s_min = _golden_refine(f, (best_i - 1) * step, (best_i + 1) * step)
    if best_v < s_min:
        phi, s_min = best_i * step, best_v
    return float(phi % TWO_PI), float(s_min)


def _optimize(family, offset: Offset, pulses, omega0: float, index: StokesIndex, closed):
    """The optimum of ``family`` at ``omega0``, scanned under ``offset``.

    ``closed(lor0)`` returns the S2 closed form ``(delta_phi, s_min, *flags)``
    at L(Omega0) = lor0 > 0, or None when the spectrum is flat.  A
    non-finite closed minimum raises ValueError before the scan runs.
    """

    def coefficients(delta_phi):
        return family(offset.phase(pulses, delta_phi))

    lor0 = lorentzian(omega0)
    found = None if lor0 == 0.0 else closed(lor0)
    # a flat spectrum is S = 1 at every offset: no closed phase and nothing to judge
    delta_phi_closed, s_closed, *flags = (math.nan, 1.0, "degenerate") if found is None else found
    if index is StokesIndex.S3:  # the angle gains pi/2 and falls with phi_free: move it up
        delta_phi_closed = delta_phi_closed + offset.sign * HALF_PI
    if not math.isfinite(s_closed):
        raise ValueError(
            f"the closed-form S_min({omega0!r}) is not finite: the photon numbers and "
            "Kerr couplings exceed double precision"
        )
    # PhaseOptimum holds Python floats, whichever scalars the closed form used
    delta_phi_closed, s_closed = float(delta_phi_closed), float(s_closed)
    delta_phi_num, s_num = scan_phase(coefficients, omega0)
    if math.isfinite(delta_phi_closed):
        s_at_closed = spectrum_from_coefficients(*coefficients(delta_phi_closed), omega0)
        if s_at_closed > s_num + AGREEMENT_TOL:
            flags.append("closed-phase-not-minimal")
    agreement = abs(s_num - s_closed)
    if found is not None and agreement > AGREEMENT_TOL:
        flags.append("closed-form-discrepancy")
    return PhaseOptimum(
        delta_phi_closed, omega0, s_closed, s_num, agreement, delta_phi_num, tuple(flags)
    )


def _optimal_single_port(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex,
    include_xpm: bool, coherent: bool = False,
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 of the single-port family.

    With imbalance D = nbar1 phi2 - nbar2 phi1 and g-kernel weight
    Sigma_x = nbar1 (phi2^2 + phix2^2) + nbar2 (phi1^2 + phix1^2), the
    cross phases phix being 0 unless ``include_xpm`` is set, the S2 optimum is

        delta_phi_opt = arctan(D / (L0 Sigma_x)) / 2
                        + phi1 - phi2 - phix1 + phix2
        s_min = 1 + 2 Sigma_x L0^2 - 2 L0 sqrt(D^2 + L0^2 Sigma_x^2)

    which S3 reaches too.  S0 and S1 are conserved, so their optimum is
    degenerate.  A ``coherent`` pulse 1 (coh_sq) uses the special case of
    :func:`optimal_phase_coh_sq` instead.
    """
    _check_omega0(omega0)
    family = single_port_family(p1, p2, t, index, include_xpm)

    def closed(lor0):
        if index in (StokesIndex.S0, StokesIndex.S1):
            return None
        # numpy scalars, so that the closed form overflows to inf (see _optimize)
        n1, n2, phi1, phi2, phix1, phix2 = map(
            np.float64, _single_port_scalars(p1, p2, t, include_xpm)
        )
        imbalance = n1 * phi2 - n2 * phi1
        weight = n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)
        if (n1 * phi2 if coherent else weight) == 0.0:
            return None
        if coherent:  # the general form would move s_min by one ulp
            delta_phi = 0.5 * math.atan(1.0 / (lor0 * phi2)) - phi2
            s_closed = (
                1.0
                + 2.0 * n1 * phi2**2 * lor0**2
                - 2.0 * n1 * phi2 * lor0 * math.sqrt(1.0 + phi2**2 * lor0**2)
            )
        else:
            delta_phi = 0.5 * math.atan(imbalance / (lor0 * weight)) + phi1 - phi2 - phix1 + phix2
            s_closed = (
                1.0
                + 2.0 * weight * lor0**2
                - 2.0 * lor0 * math.sqrt(imbalance**2 + (lor0 * weight) ** 2)
            )
        return delta_phi, s_closed

    return _optimize(family, SINGLE_PORT_OFFSET, (p1, p2), omega0, index, closed)


def optimal_phase_coh_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 for the coherent + Kerr-squeezed scenario.

    S2 closed form: delta_phi_opt = arctan(1 / (L0 phi2)) / 2 - phi2, reaching

        s_min = 1 + 2 nbar1 phi2^2 L0^2
                  - 2 nbar1 phi2 L0 sqrt(1 + phi2^2 L0^2),

    which S3 reaches too.  With phi2 = 0 the pulse pair carries no Kerr
    noise at all and the spectrum is identically 1 (degenerate optimum), as
    it is for S0, S1 and L0 = 0.
    """
    _require_coherent(p1, "pulse 1")
    return _optimal_single_port(p1, p2, t, omega0, index, include_xpm=False, coherent=True)


def optimal_phase_two_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 of ``index`` for two Kerr-squeezed pulses
    (phix = 0; any gamma_x is ignored)."""
    return _optimal_single_port(p1, p2, t, omega0, index, include_xpm=False)


def optimal_phase_xpm(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 of ``index`` with SPM and mutual XPM."""
    return _optimal_single_port(p1, p2, t, omega0, index, include_xpm=True)


def _bs_contract_issues(p1: PulseSpec, p2: PulseSpec, t: float, index: StokesIndex) -> list[str]:
    """Violated preconditions of a beam-splitter closed form, as messages.

    S0/S1 needs the balance nbar1 phi2 == nbar2 phi1; S2/S3 needs equal SPM
    phases and inputs locked in quadrature.  The optimizers raise the first
    one as a ScenarioContractError; scenario validation reports them all.
    """
    phi1, phi2 = p1.spm_phase(t), p2.spm_phase(t)
    if index in (StokesIndex.S0, StokesIndex.S1):
        balance = p1.mean_photons(t) * phi2 - p2.mean_photons(t) * phi1
        if abs(balance) > CONTRACT_TOL:
            return [
                "beam-splitter S0/S1 optimization requires the balance "
                f"nbar1 phi2 == nbar2 phi1 within {CONTRACT_TOL:g} "
                f"(equal Kerr couplings); got imbalance {balance:g}"
            ]
        return []
    problems = []
    if abs(phi1 - phi2) > CONTRACT_TOL:
        problems.append(
            "beam-splitter S2/S3 optimization requires equal SPM phases "
            f"(phi1 == phi2 within {CONTRACT_TOL:g}); got {phi1:g} and {phi2:g}"
        )
    lock = p1.phi_lin - p2.phi_lin
    if abs(lock - 0.5 * math.pi) > CONTRACT_TOL:
        problems.append(
            "beam-splitter S2/S3 optimization requires quadrature-locked inputs "
            f"(phi_lin1 - phi_lin2 == pi/2 within {CONTRACT_TOL:g}); got {lock:g}"
        )
    return problems


def optimal_phase_bs_s01(
    p1: PulseSpec, p2: PulseSpec, bs, t: float, omega0: float,
    which: StokesIndex = StokesIndex.S0,
) -> PhaseOptimum:
    """Optimal phi_lin1 - phi_lin2 for S0 or S1 after the beam splitter.

    The closed form exists on the balance manifold
    nbar1 phi2 == nbar2 phi1 (equivalent to gamma1 == gamma2 for
    overlapping pulses), where the SPM term of the h coefficient cancels
    at every offset.  There the spectrum is quadratic in
    cos(Delta Phi) with vertex

        C = (R nbar1 +/- T nbar2) / (2 (nbar1 + nbar2) phi1 L0)
            * sqrt(nbar1 / (R T nbar2))
        delta_phi_opt = arccos(C) - phi1 + phi2
        s_min = 1 - (R nbar1 +/- T nbar2)^2 / (nbar1 + nbar2)

    independent of L0 > 0.  When |C| > 1 the vertex is outside the physical
    range of the cosine; the result is flagged "arccos-domain",
    delta_phi_opt is nan and the scan values are authoritative.  L0 = 0
    makes S = 1 at every offset (degenerate optimum).
    """
    family = bs_s01_family(p1, p2, bs, t, which)
    _check_omega0(omega0)

    problems = _bs_contract_issues(p1, p2, t, which)
    if problems:
        raise ScenarioContractError(problems[0])

    def closed(lor0):
        # numpy scalars, so that the closed form overflows to inf (see _optimize)
        n1, n2, phi1, phi2 = map(
            np.float64, (p1.mean_photons(t), p2.mean_photons(t), p1.spm_phase(t), p2.spm_phase(t))
        )
        sign = 1.0 if which is StokesIndex.S0 else -1.0
        weight = n1 * phi2**2 + n2 * phi1**2
        if bs.r * bs.t == 0.0 or weight == 0.0:
            return None
        numerator = bs.r * n1 + sign * bs.t * n2
        vertex_cos = (
            numerator
            / (2.0 * (n1 + n2) * phi1 * lor0)
            * math.sqrt(n1 / (bs.r * bs.t * n2))
        )
        s_closed = 1.0 - numerator**2 / (n1 + n2)
        if not abs(vertex_cos) <= 1.0:  # nan too: 0 / 0 when phi1 and the numerator vanish
            return math.nan, s_closed, "arccos-domain"
        return math.acos(vertex_cos) - phi1 + phi2, s_closed

    return _optimize(family, BS_INPUT_OFFSET, (p1, p2), omega0, which, closed)


def optimal_phase_bs_s2(
    p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float, omega0: float,
    index: StokesIndex = StokesIndex.S2,
) -> PhaseOptimum:
    """Optimal probe offset phi_lin2 - phi_lin3 for S2 or S3 after the beam splitter.

    Contract: both Kerr pulses carry the same SPM phase phi and their
    linear phases are locked in quadrature, phi_lin1 - phi_lin2 = pi/2.
    For S2 the stationarity condition cos(2 [phi + delta_phi]) =
    (R - T) phi L0 sin(2 [phi + delta_phi]) gives

        delta_phi_opt = arctan(1 / ((R - T) phi L0)) / 2 - phi
                        (pi/4 - phi for R = T)
        s_min = 1 + 2 nbar3 phi^2 L0^2
                  - 2 nbar3 phi L0 sqrt(1 + (R - T)^2 phi^2 L0^2)

    which S3 reaches too.  L0 = 0 or a probe without Kerr noise gives
    a degenerate optimum.  The scan runs on the kernel of ``index`` and is
    authoritative whenever it finds a deeper minimum (flagged, see
    PhaseOptimum).
    """
    family = bs_s2_family(p1, p2, p3, bs, t, index)
    _check_omega0(omega0)
    problems = _bs_contract_issues(p1, p2, t, index)
    if problems:
        raise ScenarioContractError(problems[0])

    def closed(lor0):
        # numpy scalars, so that the closed form overflows to inf (see _optimize)
        n3, phi = map(np.float64, (p3.mean_photons(t), p1.spm_phase(t)))  # phi2 = phi by contract
        if n3 * phi == 0.0:
            return None
        rt_diff = bs.r - bs.t
        if rt_diff == 0.0:
            delta_phi = 0.25 * math.pi - phi
        else:
            delta_phi = 0.5 * math.atan(1.0 / (rt_diff * phi * lor0)) - phi
        s_closed = (
            1.0
            + 2.0 * n3 * phi**2 * lor0**2
            - 2.0 * n3 * phi * lor0 * math.sqrt(1.0 + rt_diff**2 * phi**2 * lor0**2)
        )
        return delta_phi, s_closed

    return _optimize(family, BS_PROBE_OFFSET, (p1, p2, p3), omega0, index, closed)
