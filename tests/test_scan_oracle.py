"""The vectorised phase scan against a scalar oracle, bit for bit.

The oracle is the scan as a plain loop: every offset rebuilds the shifted
pulse with ``dataclasses.replace``, evaluates the kernel formulas with
``math.sin``/``math.cos`` and Python floats, and keeps the first strictly
smaller S; golden-section refinement follows with the same algorithm and
tolerances as ``optimize``.  The oracle calls none of the package's kernel
builders or kernel families, so the tests pin the arithmetic of the
array path, not only its agreement to a tolerance.  The S2/S3 optimizers
are checked at both components: the S3 oracle advances its scalar angles
by pi/2, so the S3 scan must evaluate the S3 kernel, not a shifted S2 one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kerrstokes.kernel import RelaxationKernel, lorentzian
from kerrstokes.optimize import (
    AGREEMENT_TOL,
    SCAN_RESOLUTION_MIN,
    SCAN_VALUE_TOL,
    optimal_phase_bs_s01,
    optimal_phase_bs_s2,
    optimal_phase_coh_sq,
    optimal_phase_two_sq,
    optimal_phase_xpm,
)
from kerrstokes.pulse import Envelope, EnvelopeShape, PulseSpec
from kerrstokes.scenario import BeamSplitter, OmegaGrid, ScenarioConfig, ScenarioKind, run
from kerrstokes.spectra import StokesIndex, bs_s01_family, bs_s2_family, single_port_family

TWO_PI = 2.0 * math.pi
S23 = (StokesIndex.S2, StokesIndex.S3)
INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
DRAWS = 12


# ---------------------------------------------------------------- oracle


def _total(p, t, include_xpm=False):
    local = p.at(t)
    if include_xpm:
        return (local.phi - local.phix) + local.phi_lin
    return local.phi + local.phi_lin


def _turn(angle, index):
    """The S3 interference angle is the S2 one advanced by pi/2."""
    return angle + 0.5 * math.pi if index is StokesIndex.S3 else angle


def _single_port(theta, n1, n2, phi1, phi2, phix1, phix2):
    a_h = (n1 * phi2 - n2 * phi1) * math.sin(2.0 * theta)
    b_g = (n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)) * math.sin(theta) ** 2
    return a_h, b_g


def old_coh_sq(p1, p2, t, index=StokesIndex.S2):
    theta = _turn(p1.phi_lin - _total(p2, t), index)
    n1 = p1.at(t).nbar
    phi2 = p2.at(t).phi
    return n1 * phi2 * math.sin(2.0 * theta), n1 * phi2**2 * math.sin(theta) ** 2


def old_two_sq(p1, p2, t, index=StokesIndex.S2):
    theta = _turn(_total(p1, t) - _total(p2, t), index)
    a, b = p1.at(t), p2.at(t)
    return _single_port(theta, a.nbar, b.nbar, a.phi, b.phi, 0.0, 0.0)


def old_xpm(p1, p2, t, index=StokesIndex.S2):
    theta = _turn(_total(p1, t, True) - _total(p2, t, True), index)
    a, b = p1.at(t), p2.at(t)
    return _single_port(theta, a.nbar, b.nbar, a.phi, b.phi, a.phix, b.phix)


def _bs_s01(dphi, n1, n2, phi1, phi2, ref, trans, sign):
    beat = (
        2.0 * math.sqrt(ref * trans) * math.sqrt(n1 * n2)
        * (ref * phi1 + sign * trans * phi2) * math.cos(dphi)
    )
    spm = ref * trans * (n1 * phi2 - n2 * phi1) * math.sin(2.0 * dphi)
    b_g = ref * trans * (n1 * phi2**2 + n2 * phi1**2) * math.cos(dphi) ** 2
    return -(beat + spm), b_g


def _bs_s2(psi1, psi2, n3, phi1, phi2, ref, trans):
    a_h = n3 * (ref * phi1 * math.sin(2.0 * psi1) - trans * phi2 * math.sin(2.0 * psi2))
    b_g = n3 * (
        ref * phi1**2 * math.cos(psi1) ** 2 + trans * phi2**2 * math.sin(psi2) ** 2
    )
    return a_h, b_g


def old_bs_s01(p1, p2, bs, t, which):
    a, b = p1.at(t), p2.at(t)
    return _bs_s01(
        _total(p1, t) - _total(p2, t), a.nbar, b.nbar,
        a.phi, b.phi, bs.r, bs.t, 1.0 if which is StokesIndex.S0 else -1.0,
    )


def old_bs_s2(p1, p2, p3, bs, t, index=StokesIndex.S2):
    return _bs_s2(
        _turn(_total(p1, t) - p3.phi_lin, index), _turn(_total(p2, t) - p3.phi_lin, index),
        p3.at(t).nbar, p1.at(t).phi, p2.at(t).phi, bs.r, bs.t,
    )


def old_golden(f, a, b, max_iter=300):
    c = b - INV_GOLD * (b - a)
    d = a + INV_GOLD * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(fc - fd) < SCAN_VALUE_TOL or (b - a) < 1e-14:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLD * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def old_scan(kernel_at, omega0, resolution=SCAN_RESOLUTION_MIN):
    """(delta_phi, s_min) of the scalar scan; ``kernel_at(d)`` gives (a_h, b_g)."""
    lor = lorentzian(omega0)

    def f(delta_phi):
        a_h, b_g = kernel_at(delta_phi)
        return 1.0 + 2.0 * lor * a_h + 4.0 * lor * lor * b_g

    step = TWO_PI / resolution
    best_i, best_v = 0, math.inf
    for i in range(resolution):
        v = f(i * step)
        if v < best_v:
            best_i, best_v = i, v
    phi, s_min = old_golden(f, (best_i - 1) * step, (best_i + 1) * step)
    if best_v < s_min:
        phi, s_min = best_i * step, best_v
    return phi % TWO_PI, s_min


def assert_matches_oracle(opt, kernel_at):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # every replace() re-checks the couplings
        want = old_scan(kernel_at, opt.omega0)
        if math.isfinite(opt.delta_phi_opt):
            a_h, b_g = kernel_at(opt.delta_phi_opt)
            lor = lorentzian(opt.omega0)
            s_at_closed = 1.0 + 2.0 * lor * a_h + 4.0 * lor * lor * b_g
            assert ("closed-phase-not-minimal" in opt.flags) == (
                s_at_closed > want[1] + AGREEMENT_TOL
            )
    got = (opt.delta_phi_numeric, opt.s_min_numeric)
    assert [x.hex() for x in got] == [float(x).hex() for x in want]
    assert all(type(x) is float for x in got)


# -------------------------------------------------------------- families


def _bits(values):
    return [float(v).hex() for v in values]


def test_kernel_families_match_scalar_formulas():
    """Each family, on an ndarray of free phases and on scalars, equals its
    math-module formula; the free pulse is rebuilt at every phase.

    Over 4096 phases a square taken as x * x instead of pow(x, 2) differs
    in about 0.1 % of them, so the comparison would see it."""
    rng = np.random.default_rng(5)
    phases = rng.uniform(-10.0, 10.0, 4096)
    t = _u(rng, -0.5, 0.5)
    p1, p2 = (
        PulseSpec(n0=_u(rng, 10.0, 300.0), envelope=Envelope(EnvelopeShape.SECH, 1.3),
                  gamma=_u(rng, 0.001, 0.01), gamma_x=_u(rng, 0.0005, 0.005),
                  phi_lin=_u(rng, 0.0, TWO_PI))
        for _ in range(2)
    )
    p3 = PulseSpec(n0=_u(rng, 10.0, 300.0), phi_lin=_u(rng, 0.0, TWO_PI))
    bs = BeamSplitter(0.3, 0.7)
    a, b = p1.at(t), p2.at(t)

    def single_port(index, x):
        if index in (StokesIndex.S0, StokesIndex.S1):
            return 0.0, 0.0
        theta = _turn(_total(p1, t, True) - _total(replace(p2, phi_lin=x), t, True), index)
        return _single_port(theta, a.nbar, b.nbar, a.phi, b.phi, a.phix, b.phix)

    cases = [
        (single_port_family(a, b, index), lambda x, i=index: single_port(i, x))
        for index in StokesIndex
    ] + [
        (bs_s01_family(a, b, bs, which),
         lambda x, w=which: old_bs_s01(replace(p1, phi_lin=x), p2, bs, t, w))
        for which in (StokesIndex.S0, StokesIndex.S1)
    ] + [
        (bs_s2_family(a, b, p3.at(t), bs, index),
         lambda x, i=index: old_bs_s2(p1, p2, replace(p3, phi_lin=x), bs, t, i))
        for index in S23
    ]
    for family, formula in cases:
        want = [formula(float(x)) for x in phases]
        a_h, b_g = (np.broadcast_to(c, phases.shape) for c in family(phases))
        assert _bits(a_h) == _bits(w[0] for w in want)
        assert _bits(b_g) == _bits(w[1] for w in want)
        for x, w in zip(phases[:256], want):
            assert _bits(family(float(x))) == _bits(w)


# ----------------------------------------------------------------- draws


def _envelope(rng):
    shape = (EnvelopeShape.CONSTANT, EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH)[
        int(rng.integers(0, 3))
    ]
    return Envelope() if shape is EnvelopeShape.CONSTANT else Envelope(shape, rng.uniform(0.5, 2.0))


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


@pytest.fixture
def draws():
    return np.random.default_rng(20240817)


def test_coh_sq_scan_matches_oracle(draws):
    for i in range(DRAWS):
        t = _u(draws, -0.5, 0.5)
        p1 = PulseSpec(n0=_u(draws, 0.2, 5.0), envelope=_envelope(draws),
                       phi_lin=_u(draws, 0.0, TWO_PI))
        gamma = 0.0 if i % 4 == 3 else _u(draws, 0.001, 0.01)  # every fourth is degenerate
        p2 = PulseSpec(n0=_u(draws, 10.0, 200.0), envelope=_envelope(draws), gamma=gamma,
                       phi_lin=_u(draws, 0.0, TWO_PI))
        omega0 = _u(draws, 0.0, 3.0)
        for index in S23:
            opt = optimal_phase_coh_sq(p1, p2, t, omega0, index)
            assert ("degenerate" in opt.flags) == (gamma == 0.0)
            assert_matches_oracle(
                opt, lambda d: old_coh_sq(p1, replace(p2, phi_lin=p1.phi_lin + d), t, index)
            )


@pytest.mark.parametrize("kind", ["two_sq", "xpm"])
def test_two_pulse_scans_match_oracle(kind, draws):
    optimizer, kernel = {
        "two_sq": (optimal_phase_two_sq, old_two_sq),
        "xpm": (optimal_phase_xpm, old_xpm),
    }[kind]
    for i in range(DRAWS):
        t = _u(draws, -0.5, 0.5)
        degenerate = i % 4 == 3
        pulses = [
            PulseSpec(
                n0=_u(draws, 10.0, 300.0),
                envelope=_envelope(draws),
                gamma=0.0 if degenerate else _u(draws, 0.001, 0.01),
                gamma_x=0.0 if degenerate or kind == "two_sq" else _u(draws, 0.0005, 0.005),
                phi_lin=_u(draws, 0.0, TWO_PI),
            )
            for _ in range(2)
        ]
        p1, p2 = pulses
        omega0 = _u(draws, 0.0, 3.0)
        for index in S23:
            opt = optimizer(p1, p2, t, omega0, index)
            assert ("degenerate" in opt.flags) == degenerate
            assert_matches_oracle(
                opt, lambda d: kernel(p1, replace(p2, phi_lin=p1.phi_lin + d), t, index)
            )


@pytest.mark.parametrize("which", [StokesIndex.S0, StokesIndex.S1])
def test_bs_s01_scan_matches_oracle(which, draws):
    for i in range(DRAWS):
        ref = _u(draws, 0.25, 0.75)
        bs = (BeamSplitter(ref, 1.0 - ref), BeamSplitter(1.0, 0.0))[i % 4 == 3]
        n1 = _u(draws, 50.0, 200.0)
        n2 = n1 * _u(draws, 0.5, 2.0)
        gamma = _u(draws, 1.0, 3.0) / (2.0 * n1)
        p1 = PulseSpec(n0=n1, gamma=gamma, phi_lin=_u(draws, 0.0, TWO_PI))
        p2 = PulseSpec(n0=n2, gamma=gamma, phi_lin=_u(draws, 0.0, TWO_PI))
        opt = optimal_phase_bs_s01(p1, p2, bs, 0.0, _u(draws, 0.0, 1.0), which=which)
        assert ("degenerate" in opt.flags) == (bs.t == 0.0)
        assert_matches_oracle(
            opt, lambda d: old_bs_s01(replace(p1, phi_lin=p2.phi_lin + d), p2, bs, 0.0, which)
        )


def test_bs_s2_scan_matches_oracle(draws):
    for i in range(DRAWS):
        ref = _u(draws, 0.25, 0.75)
        bs = BeamSplitter(ref, 1.0 - ref)
        n1, n2 = _u(draws, 50.0, 200.0), _u(draws, 50.0, 200.0)
        n3 = 0.0 if i % 4 == 3 else _u(draws, 50.0, 200.0)
        phi = _u(draws, 0.3, 2.5)
        base = _u(draws, 0.0, TWO_PI)
        p1 = PulseSpec(n0=n1, gamma=phi / (2.0 * n1), phi_lin=base + 0.5 * math.pi)
        p2 = PulseSpec(n0=n2, gamma=phi / (2.0 * n2), phi_lin=base)
        p3 = PulseSpec(n0=n3, phi_lin=_u(draws, 0.0, TWO_PI))
        omega0 = _u(draws, 0.0, 1.5)
        for index in S23:
            opt = optimal_phase_bs_s2(p1, p2, p3, bs, 0.0, omega0, index)
            assert ("degenerate" in opt.flags) == (n3 == 0.0)
            assert_matches_oracle(
                opt,
                lambda d: old_bs_s2(p1, p2, replace(p3, phi_lin=p2.phi_lin - d), bs, 0.0, index),
            )


@pytest.mark.parametrize("kind", [ScenarioKind.COH_SQ, ScenarioKind.TWO_SQ, ScenarioKind.XPM])
@pytest.mark.parametrize("index", [StokesIndex.S0, StokesIndex.S1])
def test_conserved_component_optimum_matches_oracle(kind, index):
    pulses = (PulseSpec(n0=2.0, phi_lin=0.3), PulseSpec(n0=50.0, gamma=0.004, phi_lin=1.1))
    config = ScenarioConfig(
        kind, pulses, RelaxationKernel(1.0), stokes_index=index,
        omega_grid=OmegaGrid(0.0, 5.0, 16), omega0=0.6,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        opt = run(config).optimum
    assert opt.flags == ("degenerate",)
    assert_matches_oracle(opt, lambda d: (0.0, 0.0))
