"""Self-verification suite: every closed form against an independent route.

The checks below re-derive the package's analytic results numerically --
Fourier pairs by Simpson quadrature, phase optima by dense scans, Stokes
averages by phasor arithmetic -- and compare within fixed tolerances.  They
are deliberately redundant with the unit-test suite so that an installed
package can audit itself from the command line (``kerrstokes verify``).

``run_checks`` accepts a fault-injection hook used as a negative control:
``tau_r_mismatch`` scales the reduced frequency handed to the quadrature
route, emulating a mis-calibrated relaxation time between the two routes.
It must be a finite number > 0; any value other than 1.0 must make the
Fourier-pair checks fail.

All checks draw from one generator seeded with ``SEED``, in ``run_checks`` order, and
``_draw_pulse`` draws n0, envelope, gamma, gamma_x, phi_lin in turn.  Any moved draw, range
or check changes the report, which ``tests/test_golden.py`` pins (every ``elapsed_seconds`` aside).

The six closed-vs-scan sweeps are the rows of ``_SWEEPS``: a check name, a drawer that
maps the generator to one optimum, and whether the closed form is exact (bs_s2's is a bound
only).  Each sweep judges the optima of ``SWEEP_DRAWS`` successive calls of its drawer and
keeps every one.  A single-port drawer draws t, pulse 1, pulse 2, then omega0;
``_draw_bs_s01`` draws r, n1, n2 / n1, phi1, omega0, then the two phi_lin; ``_draw_bs_s2``
draws r, n1, n2, n3, phi, the pair's base phase, the probe's phi_lin, then omega0.  The
S0/S1 drawer takes phi1 from [2, 3), above the floor of the arccos vertex over its box, so
every draw lies inside the closed form's domain; a draw outside it would be flagged by the
optimizer ("arccos-domain"), and a flag fails an exact sweep.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import _finite_number
from .kernel import RelaxationKernel, fourier_g_closed, fourier_h_closed, lorentzian
from .optimize import (
    AGREEMENT_TOL,
    optimal_phase_bs_s01,
    optimal_phase_bs_s2,
    optimal_phase_coh_sq,
    optimal_phase_two_sq,
    optimal_phase_xpm,
    scan_phase,
)
from .oracle import QUADRATURE_TOLERANCE, mc_coherent_phasor, wk_numeric
from .pulse import Envelope, EnvelopeShape, PulseSpec
from .scenario import BeamSplitter, OmegaGrid, ScenarioConfig, ScenarioKind, run
from .spectra import (
    CorrelationKernel,
    StokesIndex,
    kernel_two_sq,
    kernel_xpm,
    spectrum,
    spectrum_value,
)
from .stokes import averages_bs, averages_coh_sq, averages_two_sq

__all__ = ["CheckResult", "VerifyReport", "run_checks"]

SEED = 20240817
FOURIER_TOL = 1e-6
EXACT_TOL = 1e-12
REDUCTION_TOL = 1e-15
SWEEP_DRAWS = 100


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict.  ``elapsed_seconds`` is the wall time from the
    previous check's record (or the start of the run) to this one's, so a
    check that shares a computation with the checks after it carries its cost."""

    name: str
    passed: bool
    tolerance: float | None
    detail: str
    elapsed_seconds: float


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    checks: tuple[CheckResult, ...]
    optimizer_flags: tuple[str, ...]
    elapsed_seconds: float


class _Collector:
    def __init__(self):
        self.checks: list[CheckResult] = []
        self.flags: set[str] = set()
        self.mark = time.perf_counter()

    def add(self, name: str, passed: bool, tolerance: float | None, detail: str):
        now = time.perf_counter()
        self.checks.append(CheckResult(name, bool(passed), tolerance, detail, now - self.mark))
        self.mark = now


def _check_fourier_pairs(col: _Collector, tau_r_mismatch: float):
    omegas = np.linspace(0.0, 5.0, 21)
    for tau_r in (0.5, 1.0, 2.0):
        relax = RelaxationKernel(tau_r)
        for label, coeffs, closed in (
            ("h", (1.0, 0.0), fourier_h_closed),
            ("g", (0.0, 1.0), fourier_g_closed),
        ):
            kern = CorrelationKernel(coeffs[0], coeffs[1])
            numeric = wk_numeric(kern, relax, omegas * tau_r_mismatch)
            worst = float(np.max(np.abs(numeric - (1.0 + closed(omegas)))))
            col.add(
                f"fourier-pair-{label}-tau{tau_r:g}",
                worst < FOURIER_TOL,
                FOURIER_TOL,
                f"max |quadrature - closed| = {worst:.3e} over 21 frequencies in [0, 5]",
            )


def _check_quadrature_basics(col: _Collector):
    relax = RelaxationKernel(1.0)
    cases = (
        ("quadrature-pure-h-dc", CorrelationKernel(1.0, 0.0), 0.0, 3.0),
        ("quadrature-pure-g-unit", CorrelationKernel(0.0, 1.0), 1.0, 2.0),
        ("quadrature-flat-kernel", CorrelationKernel(0.0, 0.0), 2.5, 1.0),
    )
    for name, kern, omega, expected in cases:
        value = wk_numeric(kern, relax, omega)
        col.add(
            name,
            abs(value - expected) < 1e-9,
            1e-9,
            f"S({omega:g}) = {value!r}, expected {expected:g}",
        )

    kern = CorrelationKernel(0.7, 1.3)
    base = wk_numeric(kern, relax, 2.0)
    fine = wk_numeric(kern, relax, 2.0, points=40001)
    drift = abs(fine - base)
    col.add(
        "quadrature-convergence",
        drift < QUADRATURE_TOLERANCE / 10.0,
        QUADRATURE_TOLERANCE / 10.0,
        f"doubling the Simpson grid moves S by {drift:.3e}",
    )


def _check_wk_random(col: _Collector, rng):
    worst = 0.0
    for _ in range(SWEEP_DRAWS):
        kern = CorrelationKernel(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 3.0)))
        relax = RelaxationKernel(float(rng.uniform(0.5, 2.0)))
        omega = float(rng.uniform(0.0, 5.0))
        worst = max(worst, abs(wk_numeric(kern, relax, omega) - spectrum_value(kern, omega)))
    col.add(
        "wk-vs-closed-random",
        worst < FOURIER_TOL,
        FOURIER_TOL,
        f"max |quadrature - Lorentzian closed form| = {worst:.3e} over {SWEEP_DRAWS} kernels",
    )


def _summary_gap(a, b) -> float:
    """Largest |difference| between the four Stokes averages of two summaries."""
    return max(abs(a.s0 - b.s0), abs(a.s1 - b.s1), abs(a.s2 - b.s2), abs(a.s3 - b.s3))


def _check_mc_phasor(col: _Collector):
    worst = 0.0
    for n1, n2, phase in ((1.0, 1.0, 0.0), (4.0, 1.0, math.pi), (2.5, 0.7, 1.1), (1.0, 3.0, -2.2)):
        p1 = PulseSpec(n0=n1)
        p2 = PulseSpec(n0=n2, phi_lin=phase)
        phasor = mc_coherent_phasor(p1, p2, 0.0)
        worst = max(worst, _summary_gap(phasor, averages_coh_sq(p1, p2, 0.0)))
    col.add(
        "mc-phasor-matches-averages",
        worst < EXACT_TOL,
        EXACT_TOL,
        f"max |phasor - closed| = {worst:.3e}",
    )


def _random_envelope(rng) -> Envelope:
    shape = (EnvelopeShape.CONSTANT, EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH)[
        int(rng.integers(0, 3))
    ]
    if shape is EnvelopeShape.CONSTANT:
        return Envelope()
    return Envelope(shape, float(rng.uniform(0.5, 2.0)))


def _draw_pulse(rng, n0, gamma=None, gamma_x=None, envelope=False) -> PulseSpec:
    """A random pulse, drawn as n0, envelope, gamma, gamma_x, then phi_lin in [0, 2pi).

    ``n0``, ``gamma`` and ``gamma_x`` are (low, high) ranges; a coupling without one
    is 0 and a pulse without ``envelope`` is constant, and neither draws."""
    draw = lambda bounds: 0.0 if bounds is None else float(rng.uniform(*bounds))
    n0 = draw(n0)
    shape = _random_envelope(rng) if envelope else Envelope()
    # arguments are evaluated left to right, in the draw order
    return PulseSpec(n0, shape, draw(gamma), draw(gamma_x), draw((0.0, 2.0 * math.pi)))


def _judge_sweep(col, name, optima, exact):
    """Assert scan <= closed + tol everywhere and, for a closed form that is
    ``exact`` on its domain, exact agreement when unflagged and no flag at all."""
    for o in optima:
        col.flags.update(o.flags)
    if not exact:
        gaps = [o.s_min_numeric - o.s_min_closed for o in optima]
        detail = (
            f"scan never above closed form: worst (numeric - closed) = "
            f"{max(gaps):.3e}; the scan route is authoritative when flags are raised"
        )
        col.add(name, not any(gap > AGREEMENT_TOL for gap in gaps), AGREEMENT_TOL, detail)
        return
    bound_ok = all(o.s_min_numeric <= o.s_min_closed + AGREEMENT_TOL for o in optima)
    clean = [o for o in optima if not o.flags]
    agree_ok = all(o.agreement <= AGREEMENT_TOL for o in clean)
    flagged = len(optima) - len(clean)
    detail = (
        f"{len(optima)} draws, {flagged} flagged; "
        f"numeric <= closed bound {'held' if bound_ok else 'VIOLATED'}"
    )
    col.add(name, bound_ok and agree_ok and flagged == 0, AGREEMENT_TOL, detail)


def _single_port_draw(optimizer, pulse1, pulse2):
    """A drawer of one single-port kind: t, pulse 1, pulse 2 (``_draw_pulse``
    ranges), then omega0, and the optimum there."""

    def draw(rng):
        t = float(rng.uniform(-0.5, 0.5))
        p1 = _draw_pulse(rng, **pulse1)
        p2 = _draw_pulse(rng, **pulse2)
        return optimizer(p1, p2, t, float(rng.uniform(0.0, 3.0)))

    return draw


def _draw_bs_s01(rng, which):
    """The beam-splitter S0/S1 optimum of a pulse pair of one gamma: r, n1,
    n2 / n1, phi1, omega0, then the two phi_lin."""
    ref = float(rng.uniform(0.25, 0.75))
    bs = BeamSplitter(ref, 1.0 - ref)
    n1 = float(rng.uniform(50.0, 200.0))
    n2 = n1 * float(rng.uniform(0.5, 2.0))
    # The S0/S1 vertex exists for phi1 >= |R n1 +/- T n2| sqrt(n1 / (R T n2))
    # / (2 (n1 + n2) L0); over the r, n2 / n1 and omega0 drawn here that floor
    # is at most 1.905 for S0 and 1.36 for S1, so phi1 >= 2 keeps every draw
    # inside the closed form's domain.
    phi1 = float(rng.uniform(2.0, 3.0))
    gamma = phi1 / (2.0 * n1)
    omega0 = float(rng.uniform(0.0, 1.0))
    p1 = PulseSpec(n0=n1, gamma=gamma, phi_lin=float(rng.uniform(0.0, 2.0 * math.pi)))
    p2 = PulseSpec(n0=n2, gamma=gamma, phi_lin=float(rng.uniform(0.0, 2.0 * math.pi)))
    return optimal_phase_bs_s01(p1, p2, bs, 0.0, omega0, which=which)


def _draw_bs_s2(rng):
    """The beam-splitter S2/S3 optimum of a balanced pair (phi1 = phi2, the
    phases a quarter turn apart) and a coherent probe, omega0 drawn last."""
    ref = float(rng.uniform(0.25, 0.75))
    bs = BeamSplitter(ref, 1.0 - ref)
    n1 = float(rng.uniform(50.0, 200.0))
    n2 = float(rng.uniform(50.0, 200.0))
    n3 = float(rng.uniform(50.0, 200.0))
    phi = float(rng.uniform(0.3, 2.5))
    base = float(rng.uniform(0.0, 2.0 * math.pi))
    p1 = PulseSpec(n0=n1, gamma=phi / (2.0 * n1), phi_lin=base + 0.5 * math.pi)
    p2 = PulseSpec(n0=n2, gamma=phi / (2.0 * n2), phi_lin=base)
    p3 = PulseSpec(n0=n3, phi_lin=float(rng.uniform(0.0, 2.0 * math.pi)))
    return optimal_phase_bs_s2(p1, p2, p3, bs, 0.0, float(rng.uniform(0.0, 1.5)))


_KERR = dict(n0=(10.0, 300.0), gamma=(0.001, 0.01), envelope=True)
_XPM = dict(_KERR, gamma_x=(0.0005, 0.005))
# One row per closed-vs-scan sweep, in run_checks order: check name, drawer
# (rng -> PhaseOptimum), and whether the closed form is exact.  coh_sq pairs a
# dim coherent pulse with a Kerr pulse of n0 <= 200; the bs_s2 closed form is a
# bound only, so its check asserts the bound alone.
_SWEEPS = (
    ("optimum-coh-sq-closed-vs-scan", _single_port_draw(
        optimal_phase_coh_sq, dict(n0=(0.2, 5.0), envelope=True), dict(_KERR, n0=(10.0, 200.0))
    ), True),
    ("optimum-two-sq-closed-vs-scan", _single_port_draw(optimal_phase_two_sq, _KERR, _KERR), True),
    ("optimum-xpm-closed-vs-scan", _single_port_draw(optimal_phase_xpm, _XPM, _XPM), True),
    ("optimum-bs-s0-closed-vs-scan", lambda rng: _draw_bs_s01(rng, StokesIndex.S0), True),
    ("optimum-bs-s1-closed-vs-scan", lambda rng: _draw_bs_s01(rng, StokesIndex.S1), True),
    ("optimum-bs-s2-scan-bound", _draw_bs_s2, False),
)


def _check_known_minima(col: _Collector):
    bs = BeamSplitter(0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p1 = PulseSpec(n0=1.0)
        p2 = PulseSpec(n0=1.0, gamma=0.5)  # phi2 = 1 at the pulse peak
        opt0 = optimal_phase_coh_sq(p1, p2, 0.0, 0.0)
        opt1 = optimal_phase_coh_sq(p1, p2, 0.0, 1.0)
        pa = PulseSpec(n0=1.0, gamma=0.45)
        opt_s0 = optimal_phase_bs_s01(pa, pa, bs, 0.0, 0.0, which=StokesIndex.S0)
        opt_s1 = optimal_phase_bs_s01(pa, pa, bs, 0.0, 0.0, which=StokesIndex.S1)
    target0 = 3.0 - 2.0 * math.sqrt(2.0)
    target1 = 1.5 - math.sqrt(1.25)
    ok = (
        abs(opt0.s_min_closed - target0) < EXACT_TOL
        and abs(opt0.s_min_numeric - target0) < AGREEMENT_TOL
        and abs(opt1.s_min_closed - target1) < EXACT_TOL
        and abs(opt1.s_min_numeric - target1) < AGREEMENT_TOL
        and abs(opt0.delta_phi_opt - (math.pi / 8.0 - 1.0)) < EXACT_TOL
    )
    col.add(
        "known-minimum-coh-sq",
        ok,
        EXACT_TOL,
        f"S_min(0) = {opt0.s_min_closed!r} vs 3 - 2 sqrt(2); "
        f"S_min(1) = {opt1.s_min_closed!r} vs 1.5 - sqrt(1.25)",
    )

    ok = (
        abs(opt_s0.s_min_closed - 0.5) < EXACT_TOL
        and abs(opt_s0.s_min_numeric - 0.5) < AGREEMENT_TOL
        and opt_s1.s_min_closed == 1.0
        and abs(opt_s1.s_min_numeric - 1.0) < AGREEMENT_TOL
    )
    col.add(
        "known-minimum-bs-balanced",
        ok,
        EXACT_TOL,
        f"S0 minimum {opt_s0.s_min_closed!r} vs 1 - nbar/2; "
        f"S1 minimum {opt_s1.s_min_closed!r} vs 1",
    )


def _check_reductions(col: _Collector, rng):
    """gamma_x = 0 reduces the xpm kernel to two_sq, and a coherent pulse 1
    reduces the general single-port closed-form optimum to coh_sq's own."""
    worst_x = 0.0
    worst_phase = 0.0
    worst_s = 0.0
    for i in range(10):
        t = float(rng.uniform(-0.5, 0.5))
        n1 = float(rng.uniform(10.0, 200.0))
        n2 = float(rng.uniform(10.0, 200.0))
        g1 = float(rng.uniform(0.001, 0.01))
        g2 = float(rng.uniform(0.001, 0.01))
        l1 = float(rng.uniform(0.0, 2.0 * math.pi))
        l2 = float(rng.uniform(0.0, 2.0 * math.pi))
        env = _random_envelope(rng)
        p1 = PulseSpec(n0=n1, envelope=env, gamma=g1, phi_lin=l1)
        p2 = PulseSpec(n0=n2, envelope=env, gamma=g2, phi_lin=l2)
        for index in (StokesIndex.S2, StokesIndex.S3):
            kx = kernel_xpm(p1, p2, t, index)
            k2 = kernel_two_sq(p1, p2, t, index)
            worst_x = max(worst_x, abs(kx.a_h - k2.a_h), abs(kx.b_g - k2.b_g))
        p1c = replace(p1, gamma=0.0)
        omega0 = 0.3 * i
        general = optimal_phase_two_sq(p1c, p2, t, omega0)
        special = optimal_phase_coh_sq(p1c, p2, t, omega0)
        # S_min cancels terms of size 2 nbar1 phi2 L0 sqrt(1 + phi2^2 L0^2)
        phi_l0 = p2.at(t).phi * lorentzian(omega0)
        scale = max(1.0, 2.0 * p1c.mean_photons(t) * phi_l0 * math.sqrt(1.0 + phi_l0**2))
        worst_phase = max(worst_phase, abs(general.delta_phi_opt - special.delta_phi_opt))
        worst_s = max(worst_s, abs(general.s_min_closed - special.s_min_closed) / scale)
    col.add(
        "reduction-xpm-to-two-sq",
        worst_x <= REDUCTION_TOL,
        REDUCTION_TOL,
        f"gamma_x = 0 collapses the xpm kernel onto two_sq within {worst_x:.3e}",
    )
    col.add(
        "reduction-two-sq-to-coh-sq",
        worst_phase <= REDUCTION_TOL and worst_s <= REDUCTION_TOL,
        REDUCTION_TOL,
        f"gamma1 = 0 collapses the two_sq closed-form optimum onto coh_sq: offsets "
        f"within {worst_phase:.3e}, S_min within {worst_s:.3e} of its cancelling terms",
    )


def _check_duality(col: _Collector, rng):
    worst = 0.0
    for _ in range(10):
        t = float(rng.uniform(-0.5, 0.5))
        p1 = _draw_pulse(rng, (10.0, 200.0), gamma=(0.0, 0.01), gamma_x=(0.0, 0.005))
        p2 = _draw_pulse(rng, (10.0, 200.0), gamma=(0.001, 0.01), gamma_x=(0.0, 0.005))
        # Advancing pulse 2's linear phase by -pi/2 advances the interference
        # angle by +pi/2, which is exactly the S2 -> S3 kernel map.
        p2_shift = p2.with_phase(p2.phi_lin - 0.5 * math.pi)
        for build in (kernel_two_sq, kernel_xpm):
            k3 = build(p1, p2, t, StokesIndex.S3)
            k2s = build(p1, p2_shift, t, StokesIndex.S2)
            worst = max(worst, abs(k3.a_h - k2s.a_h), abs(k3.b_g - k2s.b_g))
    col.add(
        "duality-s2-s3-kernels",
        worst < EXACT_TOL,
        EXACT_TOL,
        f"S3 kernel equals the S2 kernel at a pi/2-shifted phase within {worst:.3e}",
    )

    worst = 0.0
    for phase in np.linspace(0.0, 2.0 * math.pi, 17):
        p1 = PulseSpec(n0=2.0)
        p2 = PulseSpec(n0=3.0, gamma=0.01, phi_lin=float(phase))
        p2s = p2.with_phase(p2.phi_lin - 0.5 * math.pi)
        a = averages_coh_sq(p1, p2, 0.0)
        b = averages_coh_sq(p1, p2s, 0.0)
        worst = max(worst, abs(a.s3 - b.s2))
    col.add(
        "duality-s2-s3-averages",
        worst < EXACT_TOL,
        EXACT_TOL,
        f"<S3>(phase) tracks <S2>(phase - pi/2) within {worst:.3e}",
    )


def _check_probe_independence(col: _Collector):
    p1 = PulseSpec(n0=80.0, gamma=0.005, phi_lin=0.3)
    p2 = PulseSpec(n0=120.0, gamma=0.004, phi_lin=2.1)
    bs = BeamSplitter(0.4, 0.6)
    probes = (
        PulseSpec(n0=0.0),
        PulseSpec(n0=55.0, phi_lin=1.0),
        PulseSpec(n0=1e4, phi_lin=5.5),
    )
    config = ScenarioConfig(
        ScenarioKind.BS_INTERF, (p1, p2, probes[0]), RelaxationKernel(1.0),
        omega_grid=OmegaGrid(0.0, 5.0, 64), beamsplitter=bs,
    )
    identical = True
    for which in (StokesIndex.S0, StokesIndex.S1):
        series = [
            run(replace(config, stokes_index=which, pulses=(p1, p2, p3))).spectrum.values
            for p3 in probes
        ]
        identical &= all(np.array_equal(series[0], s) for s in series[1:])
    col.add(
        "bs-s01-probe-independence",
        identical,
        None,
        "S0/S1 spectra from run() are bit-identical under probe changes",
    )


def _check_coherent_baseline(col: _Collector):
    ok = True
    worst_mc = 0.0
    grid = OmegaGrid(0.0, 5.0, 64)
    medium = RelaxationKernel(1.0)
    p = lambda n0, phase=0.0: PulseSpec(n0=n0, phi_lin=phase)
    configs = [
        ScenarioConfig(ScenarioKind.COH_SQ, (p(1.0), p(2.0, 0.7)), medium, omega_grid=grid),
        ScenarioConfig(ScenarioKind.TWO_SQ, (p(2.0), p(3.0, 1.2)), medium, omega_grid=grid),
        ScenarioConfig(ScenarioKind.XPM, (p(2.0), p(3.0, 0.4)), medium, omega_grid=grid),
        ScenarioConfig(
            ScenarioKind.BS_INTERF,
            (p(2.0), p(3.0, 0.9), p(1.0, 0.2)),
            medium,
            omega_grid=grid,
            beamsplitter=BeamSplitter(0.3, 0.7),
        ),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for config in configs:
            for index in StokesIndex:
                result = run(replace(config, stokes_index=index))
                ok &= bool(np.all(result.spectrum.values == 1.0))
                ok &= bool(np.all(result.spectrum.normalized == 0.0))
            if config.kind is ScenarioKind.COH_SQ:
                phasor = mc_coherent_phasor(config.pulses[0], config.pulses[1], 0.0)
                worst_mc = max(worst_mc, _summary_gap(phasor, run(config).summary))
    col.add(
        "coherent-baseline",
        ok and worst_mc < EXACT_TOL,
        EXACT_TOL,
        "all-coherent scenarios give S identically 1, S* identically 0; "
        f"phasor averages agree within {worst_mc:.3e}",
    )


def _check_bs_port_conservation(col: _Collector):
    # The monitored-port intensity (s0 + s1) / 2 must be r nbar1 + t nbar2
    # plus an interference term that is odd in the relative phase and bounded
    # by 2 sqrt(r t nbar1 nbar2); opposite phases then average back to the
    # phase-free split and the two output ports together conserve photons.
    worst_cancel = 0.0
    worst_amp = -math.inf
    bs = BeamSplitter(0.35, 0.65)
    n1, n2 = 2.0, 3.0
    baseline = bs.r * n1 + bs.t * n2
    bound = 2.0 * math.sqrt(bs.r * bs.t * n1 * n2)
    p2 = PulseSpec(n0=n2)
    p3 = PulseSpec(n0=1.5, phi_lin=0.8)
    for phase in np.linspace(0.0, 2.0 * math.pi, 13):
        pos = averages_bs(PulseSpec(n0=n1, phi_lin=float(phase)), p2, p3, bs, 0.0)
        neg = averages_bs(PulseSpec(n0=n1, phi_lin=-float(phase)), p2, p3, bs, 0.0)
        port_pos = 0.5 * (pos.s0 + pos.s1)
        port_neg = 0.5 * (neg.s0 + neg.s1)
        worst_cancel = max(worst_cancel, abs(0.5 * (port_pos + port_neg) - baseline))
        worst_amp = max(worst_amp, abs(port_pos - baseline))
    ok = worst_cancel < EXACT_TOL and worst_amp <= bound + EXACT_TOL
    col.add(
        "bs-port-conservation",
        ok,
        EXACT_TOL,
        f"opposite-phase ports average to r nbar1 + t nbar2 within {worst_cancel:.3e}; "
        f"interference amplitude {worst_amp:.6f} <= {bound:.6f}",
    )


def _check_dop_bounded(col: _Collector, rng):
    worst = 0.0
    for _ in range(50):
        p1 = _draw_pulse(rng, (0.0, 50.0))
        p2 = _draw_pulse(rng, (0.1, 50.0), gamma=(0.0, 0.01))
        summary = averages_coh_sq(p1, p2, 0.0)
        summary2 = averages_two_sq(p1, p2, 0.0)
        for s in (summary, summary2):
            if s.s0 > 0.0:
                worst = max(worst, s.degree_of_polarization)
    col.add(
        "dop-bounded",
        worst <= 1.0 + EXACT_TOL,
        EXACT_TOL,
        f"largest degree of polarization seen: {worst:.12f} (Kerr damping only shrinks it)",
    )


def _check_vector_scalar_consistency(col: _Collector):
    kern = CorrelationKernel(-0.37, 0.81)
    grid = np.linspace(0.0, 5.0, 257)
    series = spectrum(kern, grid, reference_intensity=2.0)
    scalars = np.array([spectrum_value(kern, float(om)) for om in grid])
    identical = np.array_equal(series.values, scalars)
    col.add(
        "spectrum-grid-vs-scalar",
        identical,
        None,
        "vectorized spectrum equals the scalar evaluation bit-for-bit",
    )


def _check_api_guards(col: _Collector):
    ok = True
    flat = CorrelationKernel(0.0, 0.0)
    for call in (
        lambda: scan_phase(lambda d: (0.0, 0.0), -1.0),
        lambda: wk_numeric(flat, RelaxationKernel(1.0), 1.0, points=4002),
        lambda: wk_numeric(flat, RelaxationKernel(1.0), 1.0, points=2001),
    ):
        try:
            call()
            ok = False  # reached only when a guard is broken and lets its call through
        except ValueError:
            pass
    col.add(
        "api-guards",
        ok,
        None,
        "negative scan frequencies and even or too coarse quadrature grids are rejected",
    )


def run_checks(tau_r_mismatch: float = 1.0) -> VerifyReport:
    """Run the full self-check suite; see module docstring for the fault hook.

    Raises ValueError when ``tau_r_mismatch`` is not a finite number > 0.
    """
    if not (_finite_number(tau_r_mismatch) and tau_r_mismatch > 0.0):
        raise ValueError(f"tau_r_mismatch must be a finite number > 0, got {tau_r_mismatch!r}")
    col = _Collector()
    start = col.mark
    rng = np.random.default_rng(SEED)
    _check_fourier_pairs(col, tau_r_mismatch)
    _check_quadrature_basics(col)
    _check_wk_random(col, rng)
    _check_mc_phasor(col)
    for name, draw, exact in _SWEEPS:
        _judge_sweep(col, name, [draw(rng) for _ in range(SWEEP_DRAWS)], exact)
    _check_known_minima(col)
    _check_reductions(col, rng)
    _check_duality(col, rng)
    _check_probe_independence(col)
    _check_coherent_baseline(col)
    _check_bs_port_conservation(col)
    _check_dop_bounded(col, rng)
    _check_vector_scalar_consistency(col)
    _check_api_guards(col)
    elapsed = time.perf_counter() - start
    return VerifyReport(
        passed=all(c.passed for c in col.checks),
        checks=tuple(col.checks),
        optimizer_flags=tuple(sorted(col.flags)),
        elapsed_seconds=elapsed,
    )
