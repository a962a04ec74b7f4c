"""The single-port kernels and averages against per-kind formulas, bit for bit.

coh_sq, two_sq and xpm share one kernel body and one averages body.  The
oracle below writes each kind's formulas out on their own, with plain
Python and ``math`` functions: coh_sq rotates pulse 2 against phi_lin1 and
damps by mu2 alone, two_sq damps by mu1 + mu2 and ignores any gamma_x, xpm
adds the cross phases and damping exponents.  The golden digests pin only
the example configs at t = 0, so the seeded draws here cover constant,
gaussian and sech envelopes at t != 0, the S3 quadrature and cross
couplings.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from kerrstokes.pulse import Envelope, EnvelopeShape, PulseSpec
from kerrstokes.spectra import StokesIndex, kernel_coh_sq, kernel_two_sq, kernel_xpm
from kerrstokes.stokes import StokesSummary, averages_coh_sq, averages_two_sq, averages_xpm

TWO_PI = 2.0 * math.pi
DRAWS = 36
SHAPES = (EnvelopeShape.CONSTANT, EnvelopeShape.GAUSSIAN, EnvelopeShape.SECH)


# ---------------------------------------------------------------- oracle


def _summary(n1, n2, amp, angle):
    return StokesSummary.from_components(
        n1 + n2, n1 - n2, amp * math.cos(angle), amp * math.sin(angle)
    )


def own_averages_coh_sq(p1, p2, t):
    a, b = p1.at(t), p2.at(t)
    n1, n2 = a.nbar, b.nbar
    angle = (b.phi + b.phi_lin) - a.phi_lin
    return _summary(n1, n2, 2.0 * math.sqrt(n1 * n2) * math.exp(-b.mu), angle)


def own_averages_two_sq(p1, p2, t):
    a, b = p1.at(t), p2.at(t)
    n1, n2 = a.nbar, b.nbar
    angle = (b.phi + b.phi_lin) - (a.phi + a.phi_lin)
    damping = a.mu + b.mu
    return _summary(n1, n2, 2.0 * math.sqrt(n1 * n2) * math.exp(-damping), angle)


def own_averages_xpm(p1, p2, t):
    a, b = p1.at(t), p2.at(t)
    n1, n2 = a.nbar, b.nbar
    total1 = (a.phi - a.phix) + a.phi_lin
    total2 = (b.phi - b.phix) + b.phi_lin
    delta1 = a.mu + a.mux
    delta2 = b.mu + b.mux
    return _summary(n1, n2, 2.0 * math.sqrt(n1 * n2) * math.exp(-(delta1 + delta2)), total2 - total1)


def _kernel(theta, index, a, b):
    """(a_h, b_g) = (a sin 2theta, b sin^2 theta), flat for S0/S1, theta + pi/2 for S3."""
    if index in (StokesIndex.S0, StokesIndex.S1):
        return 0.0, 0.0
    if index is StokesIndex.S3:
        theta = theta + 0.5 * math.pi
    return a * math.sin(2.0 * theta), b * math.sin(theta) ** 2


def own_kernel_coh_sq(p1, p2, t, index):
    a, b = p1.at(t), p2.at(t)
    theta = a.phi_lin - (b.phi + b.phi_lin)
    n1, phi2 = a.nbar, b.phi
    return _kernel(theta, index, n1 * phi2, n1 * phi2**2)


def own_kernel_two_sq(p1, p2, t, index):
    a, b = p1.at(t), p2.at(t)
    theta = (a.phi + a.phi_lin) - (b.phi + b.phi_lin)
    n1, n2, phi1, phi2 = a.nbar, b.nbar, a.phi, b.phi
    return _kernel(theta, index, n1 * phi2 - n2 * phi1, n1 * phi2**2 + n2 * phi1**2)


def own_kernel_xpm(p1, p2, t, index):
    a, b = p1.at(t), p2.at(t)
    total1 = (a.phi - a.phix) + a.phi_lin
    total2 = (b.phi - b.phix) + b.phi_lin
    n1, n2, phi1, phi2 = a.nbar, b.nbar, a.phi, b.phi
    phix1, phix2 = a.phix, b.phix
    weight = n1 * (phi2**2 + phix2**2) + n2 * (phi1**2 + phix1**2)
    return _kernel(total1 - total2, index, n1 * phi2 - n2 * phi1, weight)


# ----------------------------------------------------------------- draws


def _bits(values):
    return [float(v).hex() for v in values]


def _draws(kind):
    """Seeded pulse pairs at t != 0; every envelope shape occurs on both pulses."""
    rng = np.random.default_rng(20240817)
    for i in range(DRAWS):
        t = float(rng.uniform(0.1, 0.9)) * (1.0 if i % 2 else -1.0)
        pulses = []
        for j in range(2):
            shape = SHAPES[(i + j * (i // 3)) % 3]
            envelope = (
                Envelope() if shape is EnvelopeShape.CONSTANT
                else Envelope(shape, float(rng.uniform(0.5, 2.0)))
            )
            coherent = kind == "coh_sq" and j == 0
            pulses.append(
                PulseSpec(
                    n0=float(rng.uniform(0.5, 300.0)),
                    envelope=envelope,
                    gamma=0.0 if coherent else float(rng.uniform(0.001, 0.01)),
                    # two_sq and coh_sq must ignore a cross coupling they are handed
                    gamma_x=float(rng.uniform(0.0005, 0.005)) if i % 3 else 0.0,
                    phi_lin=float(rng.uniform(0.0, TWO_PI)),
                )
            )
        yield t, pulses[0], pulses[1]


CASES = {
    "coh_sq": (averages_coh_sq, own_averages_coh_sq, kernel_coh_sq, own_kernel_coh_sq),
    "two_sq": (averages_two_sq, own_averages_two_sq, kernel_two_sq, own_kernel_two_sq),
    "xpm": (averages_xpm, own_averages_xpm, kernel_xpm, own_kernel_xpm),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_averages_match_per_kind_formulas(kind):
    averages, oracle, _, _ = CASES[kind]
    for t, p1, p2 in _draws(kind):
        got = dataclasses.astuple(averages(p1, p2, t))
        assert _bits(got) == _bits(dataclasses.astuple(oracle(p1, p2, t))), (t, p1, p2)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_kernels_match_per_kind_formulas(kind):
    _, _, kernel, oracle = CASES[kind]
    for t, p1, p2 in _draws(kind):
        for index in StokesIndex:
            kern = kernel(p1, p2, t, index)
            assert _bits((kern.a_h, kern.b_g)) == _bits(oracle(p1, p2, t, index)), (t, index)


def test_draws_cover_shapes_and_cross_coupling():
    draws = list(_draws("xpm"))
    shapes = {(p1.envelope.shape, p2.envelope.shape) for _, p1, p2 in draws}
    assert {s for pair in shapes for s in pair} == set(SHAPES)
    assert all(t != 0.0 for t, _, _ in draws)
    assert sum(p1.gamma_x > 0.0 and p2.gamma_x > 0.0 for _, p1, p2 in draws) >= DRAWS // 2
