"""Phase optimization of Stokes-fluctuation spectra.

Every scenario leaves one experimentally tunable linear phase offset
``delta_phi`` free; the spectra depend on it through interference angles.
For each of the three kernel families (single-port, beam-splitter S0/S1,
beam-splitter S2) this module pairs the closed-form offset that minimizes
S(Omega0) with an independent numerical route: a dense scan over [0, 2pi)
refined by a golden-section search.  Both answers are reported side by
side in a :class:`PhaseOptimum` and never averaged or substituted for one
another; disagreements beyond tolerance are flagged, not hidden.  The
refinement stops only when its two interior values and the bracket end
nearer the better one agree to SCAN_VALUE_TOL, so two points that straddle
the minimum and tie do not end it early.  The single-port kinds coh_sq,
two_sq and xpm share one optimizer body, which always reads the cross
phases phix, and two_sq and xpm share one builder.
The public coh_sq and two_sq optimizers hand it records with gamma_x set to
0 (``pulse._spm``), so any gamma_x of theirs is ignored.  The beam-splitter
families read the SPM phases alone.

Each closed form is one plain function of numpy scalars and L(Omega0):
:func:`_single_port_closed` (two_sq, xpm), :func:`_bs_s01_closed` and
:func:`_probe_closed`, a coherent probe beating Kerr noise at a fringe
contrast.  coh_sq is the probe form with (nbar1, phi2) at contrast 1 and
beam-splitter S2 the same form with (nbar3, phi) at contrast R - T, so at
R = 1 the two optimizers give the same bits.  coh_sq does not use the
general single-port form (an ulp away), so ``verify``'s reduction of two_sq
to coh_sq compares two routes.  ``_optimize`` checks Omega0, then the
scenario contract, for every optimizer.

Each family's offset convention is one :class:`Offset` record
``(free, anchor, sign)``, pulses counted from 0: the offset sets the free
pulse's phi_lin to the anchor's plus ``sign * delta_phi``.

* ``SINGLE_PORT_OFFSET = (1, 0, +1)``: delta_phi = phi_lin2 - phi_lin1 (coh_sq, two_sq, xpm)
* ``BS_INPUT_OFFSET = (0, 1, +1)``: delta_phi = phi_lin1 - phi_lin2 (beam-splitter S0/S1)
* ``BS_PROBE_OFFSET = (2, 1, -1)``: delta_phi = phi_lin2 - phi_lin3 (beam-splitter S2/S3)

This module alone knows which family, offset, closed form and contract serve
a kind and Stokes component.  One private builder per closed form
(``_coh_sq``, ``_two_sq`` for two_sq and xpm, ``_bs_s01``, ``_bs_s2``) takes
the pulses as records at the analysis time (``PulseSpec.at``), not the
pulses and a time, and returns the plain tuple ``(family, offset, records, closed, contract)``: its
family, its closed form and its contract all read those records, and the
contract is a callable that ``_optimize`` evaluates only when an optimum is
asked for.  Each public optimizer first makes its checks on the pulses
(coh_sq's coherent pulse 1, ``stokes._coherent_issue``), then evaluates
each pulse once and is ``_optimize`` of that tuple.  :func:`kerrstokes.scenario.run` evaluates its
pulses once, builds the same tuple from those records, takes its optimum from
``_optimize`` and its kernel from the same family at the applied phase.

Each optimizer builds its family (:mod:`kerrstokes.spectra`) for the Stokes
component it is asked for and scans it at the free phase, so the
interference angle is computed where the kernel builders compute it; the
coarse pass evaluates the family once on an ndarray of all offsets (numpy's
sin, cos and pow), the golden-section refinement on floats (libm's, the same
bits), and no pulse is rebuilt inside a scan.  S3 advances the S2
interference angle by pi/2, and in every family that angle falls as the free
phase rises, so the S3 closed offset is the S2 one plus ``sign * pi/2``.
S0/S1 of the single-port family, a pulse pair without Kerr noise and
L(Omega0) = 1 / (1 + Omega0^2) = 0 each make S = 1 at every offset: the
optimum is "degenerate".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioContractError, _finite_number
from .kernel import lorentzian
from .pulse import LocalPulse, PulseSpec, _spm
from .spectra import (
    HALF_PI,
    StokesIndex,
    _spectrum_from_lorentzian,
    bs_s01_family,
    bs_s2_family,
    single_port_family,
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
# Golden-section refinement stops once its interior values and the nearer
# bracket end agree to this in S (not in phase).
SCAN_VALUE_TOL = 1e-12
GOLDEN_MAX_ITER = 300
# Closed form and scan must agree to this before a discrepancy is flagged;
# also the slack allowed in "numeric minimum <= closed minimum".
AGREEMENT_TOL = 1e-9
# Scenario contracts on continuous quantities are enforced to this accuracy.
CONTRACT_TOL = 1e-9

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_STEP = TWO_PI / SCAN_RESOLUTION_MIN
# The coarse-pass offsets, read-only because every scan shares them.
_OFFSETS = np.arange(SCAN_RESOLUTION_MIN) * _STEP
_OFFSETS.flags.writeable = False


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
    ``pulses[free]`` has phi_lin = ``pulses[anchor].phi_lin + sign * delta_phi``.

    ``pulses`` are :class:`~kerrstokes.pulse.PulseSpec` or
    :class:`~kerrstokes.pulse.LocalPulse` records, which move alike."""

    free: int
    anchor: int
    sign: float

    def phase(self, pulses, delta_phi):
        """The free pulse's linear phase at ``delta_phi`` (a float or an ndarray)."""
        return pulses[self.anchor].phi_lin + self.sign * delta_phi

    def apply(self, pulses, delta_phi: float) -> tuple:
        """``pulses`` with the free pulse moved to the offset ``delta_phi``."""
        moved = list(pulses)
        moved[self.free] = moved[self.free].with_phase(self.phase(pulses, delta_phi))
        return tuple(moved)


SINGLE_PORT_OFFSET = Offset(free=1, anchor=0, sign=1.0)
BS_INPUT_OFFSET = Offset(free=0, anchor=1, sign=1.0)
BS_PROBE_OFFSET = Offset(free=2, anchor=1, sign=-1.0)


def _check_omega0(omega0: float) -> None:
    if not (_finite_number(omega0) and omega0 >= 0.0):
        raise ValueError(f"omega0 must be a finite number >= 0, got {omega0!r}")


def _golden_refine(f, a: float, b: float, fa: float, fb: float):
    """Golden-section minimization of f on [a, b], unimodal assumed, given
    the values ``fa`` and ``fb`` at the bracket ends.

    Stops when the two interior S values agree to SCAN_VALUE_TOL *and* the
    bracket end nearer the better one is within SCAN_VALUE_TOL of it (the
    tolerance is on the spectrum value, not on the phase), when the bracket
    is narrower than 1e-14, or after GOLDEN_MAX_ITER steps.  Two interior
    values that straddle the minimum can tie while the bracket is still
    wide; the end test rules that out.  For a convex f, the returned value
    then lies within (1 + sqrt 5) / 2 * SCAN_VALUE_TOL (about 1.6 times the
    tolerance) of the minimum over the bracket: by convexity, f stays above
    the secant through the better interior point and its nearer end, and
    above the secant through the two interior points."""
    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(GOLDEN_MAX_ITER):
        best, near = (fc, fa) if fc <= fd else (fd, fb)
        tied = abs(fc - fd) < SCAN_VALUE_TOL and abs(near - best) < SCAN_VALUE_TOL
        if tied or (b - a) < 1e-14:
            break
        if fc < fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - _INV_GOLD * (b - a)
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
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
    smallest value; golden-section refinement between its two neighbours
    then calls ``coefficients`` on scalars until the stop rule of
    ``_golden_refine`` holds, which bounds the error in S by about
    1.6 * SCAN_VALUE_TOL where S is convex in the bracket.

    Returns (delta_phi, s_min) with delta_phi wrapped into [0, 2pi).
    Raises ValueError when S is not finite at some scanned offset.
    """
    _check_omega0(omega0)
    lor0 = lorentzian(omega0)
    # _spectrum_from_lorentzian's products, left to right: (2 L0) a_h and (4 L0 L0) b_g
    h_weight, g_weight = 2.0 * lor0, 4.0 * lor0 * lor0

    def f(delta_phi):
        a_h, b_g = coefficients(delta_phi)
        return 1.0 + h_weight * a_h + g_weight * b_g

    values = f(_OFFSETS)
    if not isinstance(values, np.ndarray):  # a phase-independent kernel gives one scalar
        values = np.broadcast_to(values, _OFFSETS.shape)
    if not np.isfinite(values).all():
        raise ValueError(
            f"S({omega0!r}) is not finite at every phase offset: the photon numbers "
            "and Kerr couplings exceed double precision"
        )
    best_i = int(values.argmin())
    best_v = values[best_i]
    # Periodicity makes out-of-range bracket edges harmless.
    ends = values[best_i - 1], values[(best_i + 1) % SCAN_RESOLUTION_MIN]
    phi, s_min = _golden_refine(f, (best_i - 1) * _STEP, (best_i + 1) * _STEP, *ends)
    if best_v < s_min:
        phi, s_min = best_i * _STEP, best_v
    return float(phi % TWO_PI), float(s_min)


def _optimize(
    family, offset: Offset, records, closed, contract, omega0: float, index: StokesIndex
):
    """The optimum of ``family`` at ``omega0``, scanned under ``offset``.

    The first five arguments are the tuple of one builder, such as :func:`_coh_sq`.
    ``omega0`` is checked first; then ``contract()`` lists the violated
    preconditions of the closed form (empty when it has none), and the first
    is raised as a ScenarioContractError.  ``closed(lor0)`` returns the S2
    closed form ``(delta_phi, s_min, *flags)`` at L(Omega0) = lor0 > 0, or
    None when the spectrum is flat.  A non-finite closed minimum raises
    ValueError before the scan runs.
    """
    _check_omega0(omega0)
    if issues := contract():
        raise ScenarioContractError(issues[0])

    anchor, sign = records[offset.anchor].phi_lin, offset.sign

    def coefficients(delta_phi):  # family(offset.phase(records, delta_phi))
        return family(anchor + sign * delta_phi)

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
        s_at_closed = _spectrum_from_lorentzian(*coefficients(delta_phi_closed), lor0)
        if s_at_closed > s_num + AGREEMENT_TOL:
            flags.append("closed-phase-not-minimal")
    agreement = abs(s_num - s_closed)
    if found is not None and agreement > AGREEMENT_TOL:
        flags.append("closed-form-discrepancy")
    return PhaseOptimum(
        delta_phi_closed, omega0, s_closed, s_num, agreement, delta_phi_num, tuple(flags)
    )


# The closed forms below take numpy scalars (and L0 = lor0 > 0), so that they
# overflow to inf rather than raise; each returns (delta_phi, s_min, *flags)
# for S2, or None when the spectrum is flat.


def _probe_closed(n, phi, contrast, lor0):
    """A coherent probe of n photons beating Kerr noise of SPM phase phi at
    fringe contrast ``contrast``: coh_sq is (nbar1, phi2, 1), beam-splitter
    S2 on its contract is (nbar3, phi, R - T).

        delta_phi_opt = arctan(1 / (contrast phi L0)) / 2 - phi
                        (pi/4 - phi at contrast 0)
        s_min = 1 + 2 n phi^2 L0^2 - 2 n phi L0 sqrt(1 + contrast^2 phi^2 L0^2)

    n phi = 0 (no Kerr noise to beat against) is flat.
    """
    if n * phi == 0.0:
        return None
    total = 0.25 * math.pi if contrast == 0.0 else 0.5 * math.atan(1.0 / (contrast * phi * lor0))
    root = math.sqrt(1.0 + contrast**2 * phi**2 * lor0**2)
    return total - phi, 1.0 + 2.0 * n * phi**2 * lor0**2 - 2.0 * n * phi * lor0 * root


def _single_port_closed(n1, n2, phi1, phi2, phix1, phix2, lor0):
    """With imbalance D = nbar1 phi2 - nbar2 phi1 and g-kernel weight
    Sigma_x = nbar1 (phi2^2 + phix2^2) + nbar2 (phi1^2 + phix1^2):

        delta_phi_opt = arctan(D / (L0 Sigma_x)) / 2 + phi1 - phi2 - phix1 + phix2
        s_min = 1 + 2 Sigma_x L0^2 - 2 L0 sqrt(D^2 + L0^2 Sigma_x^2)

    Sigma_x = 0 is flat.
    """
    imbalance = n1 * phi2 - n2 * phi1
    weight = n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)
    if weight == 0.0:
        return None
    delta_phi = 0.5 * math.atan(imbalance / (lor0 * weight)) + phi1 - phi2 - phix1 + phix2
    root = math.sqrt(imbalance**2 + (lor0 * weight) ** 2)
    return delta_phi, 1.0 + 2.0 * weight * lor0**2 - 2.0 * lor0 * root


def _bs_s01_closed(n1, n2, phi1, phi2, ref, trans, sign, lor0):
    """Beam-splitter S0 (``sign`` +1) or S1 (-1) on the balance manifold,
    R = ``ref`` and T = ``trans``.  The spectrum is quadratic in
    cos(Delta Phi) with vertex

        C = (R nbar1 +/- T nbar2) / (2 (nbar1 + nbar2) phi1 L0)
            * sqrt(nbar1 / (R T nbar2))
        delta_phi_opt = arccos(C) - phi1 + phi2
        s_min = 1 - (R nbar1 +/- T nbar2)^2 / (nbar1 + nbar2)

    independent of L0.  When |C| > 1, or C is x / 0, the vertex has no
    phase: delta_phi_opt is nan and flagged "arccos-domain".  R T = 0 or no
    Kerr noise is flat.
    """
    weight = n1 * phi2**2 + n2 * phi1**2
    if ref * trans == 0.0 or weight == 0.0:
        return None
    numerator = ref * n1 + sign * trans * n2
    denominator = 2.0 * (n1 + n2) * phi1 * lor0
    s_closed = 1.0 - numerator**2 / (n1 + n2)
    if denominator == 0.0:  # phi1 = 0: C = x / 0 or 0 / 0, no vertex to take arccos of
        return math.nan, s_closed, "arccos-domain"
    vertex_cos = numerator / denominator * math.sqrt(n1 / (ref * trans * n2))
    if not abs(vertex_cos) <= 1.0:  # nan too: inf / inf once the numbers overflow
        return math.nan, s_closed, "arccos-domain"
    return math.acos(vertex_cos) - phi1 + phi2, s_closed


# Each builder below takes the records of its pulses and returns (family,
# offset, records, closed, contract): the family of one kind and Stokes
# component, the offset it is scanned under, the records it reads, its closed
# form and a callable that lists the violated preconditions of that closed form.


def _single_port(a: LocalPulse, b: LocalPulse, index: StokesIndex, form):
    """The single-port family, scanned in phi_lin2 - phi_lin1.

    ``form(nbar1, nbar2, phi1, phi2, phix1, phix2, lor0)`` is the S2 closed
    form, which S3 reaches too.  S0 and S1 are conserved, so their optimum
    is degenerate.
    """
    family = single_port_family(a, b, index)

    def closed(lor0):
        if index in (StokesIndex.S0, StokesIndex.S1):
            return None
        return form(*map(np.float64, (a.nbar, b.nbar, a.phi, b.phi, a.phix, b.phix)), lor0)

    return family, SINGLE_PORT_OFFSET, (a, b), closed, lambda: ()


def _coh_sq(a: LocalPulse, b: LocalPulse, index: StokesIndex):
    """coh_sq: the probe form with (nbar1, phi2) at contrast 1, for a coherent
    pulse ``a``, which the caller has checked."""
    return _single_port(
        a, b, index,
        lambda n1, n2, phi1, phi2, phix1, phix2, lor0: _probe_closed(n1, phi2, 1.0, lor0),
    )


def _two_sq(a: LocalPulse, b: LocalPulse, index: StokesIndex):
    """two_sq and xpm: the general single-port form, which reads the records'
    cross phases (0 on two_sq's records)."""
    return _single_port(a, b, index, _single_port_closed)


def optimal_phase_coh_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 for the coherent + Kerr-squeezed scenario.

    The S2 closed form is :func:`_probe_closed` with (nbar1, phi2) at
    contrast 1,

        delta_phi_opt = arctan(1 / (L0 phi2)) / 2 - phi2
        s_min = 1 + 2 nbar1 phi2^2 L0^2 - 2 nbar1 phi2 L0 sqrt(1 + phi2^2 L0^2),

    which S3 reaches too; the general single-port form would move s_min by
    one ulp.  With phi2 = 0 the pulse pair carries no Kerr noise at all and
    the spectrum is identically 1 (degenerate optimum), as it is for S0, S1
    and L0 = 0.
    """
    _require_coherent(p1, "pulse 1")
    return _optimize(*_coh_sq(*_spm(t, p1, p2), index), omega0, index)


def optimal_phase_two_sq(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 of ``index`` for two Kerr-squeezed pulses
    (phix = 0; any gamma_x is ignored)."""
    return _optimize(*_two_sq(*_spm(t, p1, p2), index), omega0, index)


def optimal_phase_xpm(
    p1: PulseSpec, p2: PulseSpec, t: float, omega0: float, index: StokesIndex = StokesIndex.S2
) -> PhaseOptimum:
    """Optimal phi_lin2 - phi_lin1 of ``index`` with SPM and mutual XPM."""
    return _optimize(*_two_sq(p1.at(t), p2.at(t), index), omega0, index)


def _bs_contract_issues(a: LocalPulse, b: LocalPulse, index: StokesIndex) -> list[str]:
    """Violated preconditions of a beam-splitter closed form for inputs ``a``
    and ``b``, as messages.

    S0/S1 needs the balance nbar1 phi2 == nbar2 phi1; S2/S3 needs equal SPM
    phases and inputs locked in quadrature.  The optimizers raise the first
    one as a ScenarioContractError; scenario validation reports them all.
    """
    phi1, phi2 = a.phi, b.phi
    if index in (StokesIndex.S0, StokesIndex.S1):
        balance = a.nbar * phi2 - b.nbar * phi1
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
    lock = a.phi_lin - b.phi_lin
    if abs(lock - 0.5 * math.pi) > CONTRACT_TOL:
        problems.append(
            "beam-splitter S2/S3 optimization requires quadrature-locked inputs "
            f"(phi_lin1 - phi_lin2 == pi/2 within {CONTRACT_TOL:g}); got {lock:g}"
        )
    return problems


def _bs_s01(a: LocalPulse, b: LocalPulse, bs, which: StokesIndex):
    """Beam-splitter S0 (``which`` S0) or S1, scanned in phi_lin1 - phi_lin2."""
    family = bs_s01_family(a, b, bs, which)

    def closed(lor0):
        scalars = a.nbar, b.nbar, a.phi, b.phi
        sign = 1.0 if which is StokesIndex.S0 else -1.0
        return _bs_s01_closed(*map(np.float64, scalars), bs.r, bs.t, sign, lor0)

    return family, BS_INPUT_OFFSET, (a, b), closed, lambda: _bs_contract_issues(a, b, which)


def _bs_s2(a: LocalPulse, b: LocalPulse, c: LocalPulse, bs, index: StokesIndex):
    """Beam-splitter S2 or S3, scanned in the probe offset phi_lin2 - phi_lin3."""
    family = bs_s2_family(a, b, c, bs, index)

    def closed(lor0):  # phi2 = phi1 by contract
        n3, phi = map(np.float64, (c.nbar, a.phi))
        return _probe_closed(n3, phi, bs.r - bs.t, lor0)

    return family, BS_PROBE_OFFSET, (a, b, c), closed, lambda: _bs_contract_issues(a, b, index)


def optimal_phase_bs_s01(
    p1: PulseSpec, p2: PulseSpec, bs, t: float, omega0: float,
    which: StokesIndex = StokesIndex.S0,
) -> PhaseOptimum:
    """Optimal phi_lin1 - phi_lin2 for S0 or S1 after the beam splitter.

    The closed form, :func:`_bs_s01_closed`, exists on the balance manifold
    nbar1 phi2 == nbar2 phi1 (equivalent to gamma1 == gamma2 for
    overlapping pulses), where the SPM term of the h coefficient cancels
    at every offset; off it a ScenarioContractError is raised.  When the
    vertex is outside the physical range of the cosine the result is
    flagged "arccos-domain", delta_phi_opt is nan and the scan values are
    authoritative.  L0 = 0 makes S = 1 at every offset (degenerate optimum).
    """
    return _optimize(*_bs_s01(p1.at(t), p2.at(t), bs, which), omega0, which)


def optimal_phase_bs_s2(
    p1: PulseSpec, p2: PulseSpec, p3: PulseSpec, bs, t: float, omega0: float,
    index: StokesIndex = StokesIndex.S2,
) -> PhaseOptimum:
    """Optimal probe offset phi_lin2 - phi_lin3 for S2 or S3 after the beam splitter.

    Contract: both Kerr pulses carry the same SPM phase phi and their
    linear phases are locked in quadrature, phi_lin1 - phi_lin2 = pi/2.
    The closed form is :func:`_probe_closed` with (nbar3, phi) at contrast
    R - T, where the stationarity condition cos(2 [phi + delta_phi]) =
    (R - T) phi L0 sin(2 [phi + delta_phi]) gives

        delta_phi_opt = arctan(1 / ((R - T) phi L0)) / 2 - phi
                        (pi/4 - phi for R = T)
        s_min = 1 + 2 nbar3 phi^2 L0^2
                  - 2 nbar3 phi L0 sqrt(1 + (R - T)^2 phi^2 L0^2)

    which S3 reaches too; at R = 1 this is the coh_sq optimum with
    (nbar1, phi2) -> (nbar3, phi).  L0 = 0 or a probe without Kerr noise gives
    a degenerate optimum.  The scan runs on the kernel of ``index`` and is
    authoritative whenever it finds a deeper minimum (flagged, see
    PhaseOptimum).
    """
    return _optimize(*_bs_s2(p1.at(t), p2.at(t), p3.at(t), bs, index), omega0, index)
