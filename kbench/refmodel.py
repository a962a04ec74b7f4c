"""Independent reference model of the paper's formulas, in plain numpy.

Nothing here imports ``kerrstokes``: the benchmark checks the package's
outputs against these expressions, written from the formulas alone.

* The Lorentzian polynomial S(Omega) = 1 + 2 L a + 4 L^2 b, L = 1 / (1 + Omega^2).
* The single-port coefficients (coh_sq, two_sq and xpm share one form; coh_sq
  is gamma1 = 0, two_sq is gamma_x = 0) and their closed-form minimum
  1 + 2 Sigma L0^2 - 2 L0 sqrt(D^2 + L0^2 Sigma^2).
* The beam-splitter coefficients, the S0/S1 floor 1 - (R n1 +/- T n2)^2 / (n1 + n2)
  and the S2 stationary value.
* The mean Stokes parameters of all four arrangements.

Run ``python3 kbench/refmodel.py`` for the self-test against the floors
documented in ``configs/coh_sq.ini`` and ``configs/bs_interf.ini``.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HALF_PI = 0.5 * math.pi
SINGLE_PORT = ("coh_sq", "two_sq", "xpm")


@dataclass(frozen=True)
class Pulse:
    n0: float
    gamma: float = 0.0
    gamma_x: float = 0.0
    phi_lin: float = 0.0
    shape: str = "constant"
    tau_p: float | None = None

    def nbar(self, t):
        if self.shape == "constant":
            r = 1.0
        elif self.shape == "gaussian":
            r = math.exp(-(t * t) / (2.0 * self.tau_p * self.tau_p))
        else:
            r = 1.0 / math.cosh(t / self.tau_p)
        return self.n0 * r * r

    def phi(self, t):
        return 2.0 * self.gamma * self.nbar(t)

    def phix(self, t):
        return 2.0 * self.gamma_x * self.nbar(t)

    def damping(self, t):
        return (self.gamma**2 + self.gamma_x**2) * self.nbar(t) / 2.0

    def phase(self, t):
        """Total optical phase with the cross-Kerr shift (zero outside xpm)."""
        return (self.phi(t) - self.phix(t)) + self.phi_lin


@dataclass(frozen=True)
class Scenario:
    """One measurement: kind, Stokes index, pulses, analysis time t,
    splitter reflectance r (transmittance 1 - r), omega0, normalization."""

    kind: str
    index: str
    pulses: tuple[Pulse, ...]
    t: float = 0.0
    r: float | None = None
    omega0: float | None = None
    normalization: float | None = None


def lorentzian(omega):
    return 1.0 / (1.0 + omega * omega)


def spectrum(a, b, omega):
    lor = lorentzian(omega)
    return 1.0 + 2.0 * lor * a + 4.0 * lor * lor * b


def spectrum_scale(a, b, omega):
    """Magnitude of the terms of S; rounding errors scale with it."""
    lor = lorentzian(omega)
    return 1.0 + 2.0 * lor * abs(a) + 4.0 * lor * lor * abs(b)


def single_port_terms(p1: Pulse, p2: Pulse, t):
    """(n1, n2, phi1, phi2, D, Sigma) of the single-port arrangements."""
    n1, n2 = p1.nbar(t), p2.nbar(t)
    phi1, phi2 = p1.phi(t), p2.phi(t)
    imbalance = n1 * phi2 - n2 * phi1
    weight = n1 * (phi2**2 + p2.phix(t) ** 2) + n2 * (phi1**2 + p1.phix(t) ** 2)
    return n1, n2, phi1, phi2, imbalance, weight


def coefficients(sc: Scenario):
    """(a, b) of R(tau) = delta + a h + b g for the scenario as configured."""
    t = sc.t
    if sc.kind in SINGLE_PORT:
        if sc.index in ("S0", "S1"):
            return 0.0, 0.0
        p1, p2 = sc.pulses
        theta = p1.phase(t) - p2.phase(t)
        if sc.index == "S3":
            theta += HALF_PI
        _, _, _, _, imbalance, weight = single_port_terms(p1, p2, t)
        return imbalance * math.sin(2.0 * theta), weight * math.sin(theta) ** 2
    p1, p2, p3 = sc.pulses
    ref, trans = sc.r, 1.0 - sc.r
    n1, n2 = p1.nbar(t), p2.nbar(t)
    phi1, phi2 = p1.phi(t), p2.phi(t)
    if sc.index in ("S0", "S1"):
        sign = 1.0 if sc.index == "S0" else -1.0
        dphi = p1.phase(t) - p2.phase(t)
        beat = 2.0 * math.sqrt(ref * trans * n1 * n2) * (ref * phi1 + sign * trans * phi2)
        a = -(beat * math.cos(dphi) + ref * trans * (n1 * phi2 - n2 * phi1) * math.sin(2.0 * dphi))
        b = ref * trans * (n1 * phi2**2 + n2 * phi1**2) * math.cos(dphi) ** 2
        return a, b
    psi1 = p1.phase(t) - p3.phi_lin
    psi2 = p2.phase(t) - p3.phi_lin
    if sc.index == "S3":
        psi1 += HALF_PI
        psi2 += HALF_PI
    n3 = p3.nbar(t)
    a = n3 * (ref * phi1 * math.sin(2.0 * psi1) - trans * phi2 * math.sin(2.0 * psi2))
    b = n3 * (ref * phi1**2 * math.cos(psi1) ** 2 + trans * phi2**2 * math.sin(psi2) ** 2)
    return a, b


def reference_intensity(sc: Scenario):
    if sc.normalization is not None:
        return sc.normalization
    p = sc.pulses
    if sc.kind in SINGLE_PORT:
        return p[0].nbar(sc.t)
    if sc.index in ("S0", "S1"):
        return p[0].nbar(sc.t) + p[1].nbar(sc.t)
    return p[2].nbar(sc.t)


def with_offset(sc: Scenario, delta_phi):
    """Apply the linear phase offset by each arrangement's convention."""
    p = list(sc.pulses)
    if sc.kind in SINGLE_PORT:
        p[1] = replace(p[1], phi_lin=p[0].phi_lin + delta_phi)
    elif sc.index in ("S0", "S1"):
        p[0] = replace(p[0], phi_lin=p[1].phi_lin + delta_phi)
    else:
        p[2] = replace(p[2], phi_lin=p[1].phi_lin - delta_phi)
    return replace(sc, pulses=tuple(p))


def closed_optimum(sc: Scenario):
    """(delta_phi, s_min, scale) of the closed form at sc.omega0.

    delta_phi is nan where the stationary point is out of reach: a flat
    spectrum, or a beam-splitter S0/S1 vertex with |cos| > 1.  ``scale``
    is the size of the terms that cancel in s_min, which bounds its
    rounding error.
    """
    t = sc.t
    lor0 = lorentzian(sc.omega0)
    if sc.kind in SINGLE_PORT:
        if sc.index in ("S0", "S1"):
            return math.nan, 1.0, 1.0
        p1, p2 = sc.pulses
        _, _, phi1, phi2, imbalance, weight = single_port_terms(p1, p2, t)
        if weight == 0.0:
            return math.nan, 1.0, 1.0
        gain = 2.0 * weight * lor0**2
        loss = 2.0 * lor0 * math.sqrt(imbalance**2 + (lor0 * weight) ** 2)
        delta = (
            0.5 * math.atan(imbalance / (lor0 * weight))
            + phi1 - phi2 - p1.phix(t) + p2.phix(t)
        )
        return delta + (HALF_PI if sc.index == "S3" else 0.0), 1.0 + gain - loss, 1.0 + gain + loss
    p1, p2, p3 = sc.pulses
    ref, trans = sc.r, 1.0 - sc.r
    if sc.index in ("S0", "S1"):
        n1, n2 = p1.nbar(t), p2.nbar(t)
        depth = s01_numerator(sc) ** 2 / (n1 + n2)
        vertex = s01_vertex(sc)
        delta = math.acos(vertex) - p1.phi(t) + p2.phi(t) if abs(vertex) <= 1.0 else math.nan
        return delta, 1.0 - depth, 1.0 + depth
    phi = p1.phi(t)
    n3 = p3.nbar(t)
    rt_diff = ref - trans
    gain = 2.0 * n3 * phi**2 * lor0**2
    loss = 2.0 * n3 * phi * lor0 * math.sqrt(1.0 + rt_diff**2 * phi**2 * lor0**2)
    if rt_diff == 0.0:
        delta = 0.25 * math.pi - phi
    else:
        delta = 0.5 * math.atan(1.0 / (rt_diff * phi * lor0)) - phi
    return delta - (HALF_PI if sc.index == "S3" else 0.0), 1.0 + gain - loss, 1.0 + gain + loss


def s01_numerator(sc: Scenario):
    """R n1 +/- T n2 of the beam-splitter S0/S1 floor."""
    n1, n2 = sc.pulses[0].nbar(sc.t), sc.pulses[1].nbar(sc.t)
    return sc.r * n1 + (1.0 if sc.index == "S0" else -1.0) * (1.0 - sc.r) * n2


def s01_vertex(sc: Scenario):
    """cos(Delta Phi) at the beam-splitter S0/S1 stationary point."""
    p1, p2 = sc.pulses[0], sc.pulses[1]
    n1, n2 = p1.nbar(sc.t), p2.nbar(sc.t)
    lor0 = lorentzian(sc.omega0)
    return (
        s01_numerator(sc) / (2.0 * (n1 + n2) * p1.phi(sc.t) * lor0)
        * math.sqrt(n1 / (sc.r * (1.0 - sc.r) * n2))
    )


def mean_stokes(sc: Scenario):
    """(s0, s1, s2, s3) of the mean Stokes vector at the analysis time."""
    t = sc.t
    if sc.kind in SINGLE_PORT:
        p1, p2 = sc.pulses
        n1, n2 = p1.nbar(t), p2.nbar(t)
        amp = 2.0 * math.sqrt(n1 * n2) * math.exp(-(p1.damping(t) + p2.damping(t)))
        angle = p2.phase(t) - p1.phase(t)
        return n1 + n2, n1 - n2, amp * math.cos(angle), amp * math.sin(angle)
    p1, p2, p3 = sc.pulses
    ref, trans = sc.r, 1.0 - sc.r
    n1, n2, n3 = p1.nbar(t), p2.nbar(t), p3.nbar(t)
    mu1, mu2 = p1.damping(t), p2.damping(t)
    phase1, phase2 = p1.phase(t), p2.phase(t)
    cross = 2.0 * math.sqrt(ref * trans * n1 * n2) * math.exp(-(mu1 + mu2)) * math.sin(phase2 - phase1)
    port = ref * n1 + trans * n2 + cross
    amp2 = 2.0 * math.sqrt(trans * n2 * n3) * math.exp(-mu2)
    amp1 = 2.0 * math.sqrt(ref * n1 * n3) * math.exp(-mu1)
    probe = p3.phi_lin
    s2 = amp2 * math.cos(probe - phase2) + amp1 * math.sin(probe - phase1)
    s3 = amp2 * math.sin(probe - phase2) - amp1 * math.cos(probe - phase1)
    return port + n3, port - n3, s2, s3


def swept_minimum(sc: Scenario, points: int = 4000):
    """Minimum of S(omega0) over a uniform offset grid, for the self-test."""
    return min(
        float(spectrum(*coefficients(with_offset(sc, d)), sc.omega0))
        for d in np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    )


def scenario_from_ini(path) -> Scenario:
    """Read one of the repository's example configs without kerrstokes."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read(path, encoding="utf-8")
    sec = parser["scenario"]
    pulses = []
    for i in (1, 2, 3):
        if parser.has_section(f"pulse{i}"):
            ps = parser[f"pulse{i}"]
            pulses.append(
                Pulse(
                    float(ps["n0"]),
                    float(ps.get("gamma", 0.0)),
                    float(ps.get("gamma_x", 0.0)),
                    float(ps.get("phi_lin", 0.0)),
                    ps.get("envelope", "constant"),
                    float(ps["tau_p"]) if "tau_p" in ps else None,
                )
            )
    r = float(parser["beamsplitter"]["r"]) if parser.has_section("beamsplitter") else None
    return Scenario(
        sec["kind"],
        sec.get("stokes_index", "S2"),
        tuple(pulses),
        float(sec.get("analysis_time", 0.0)),
        r,
        float(sec["omega0"]) if "omega0" in sec else None,
        float(sec["normalization"]) if "normalization" in sec else None,
    )


def self_test(configs_dir) -> list[tuple[str, bool, str]]:
    """Check the model against the floors the example configs document."""
    results = []
    coh = scenario_from_ini(Path(configs_dir) / "coh_sq.ini")
    _, s_min, _ = closed_optimum(coh)
    target = 3.0 - 2.0 * math.sqrt(2.0)
    results.append(
        ("coh_sq.ini floor 3 - 2 sqrt(2)", abs(s_min - target) <= 1e-12, f"s_min = {s_min!r}")
    )
    bs = scenario_from_ini(Path(configs_dir) / "bs_interf.ini")
    _, s_min, _ = closed_optimum(bs)
    s_star = (s_min - 1.0) / reference_intensity(bs)
    results.append(
        ("bs_interf.ini floor s* = -0.25", abs(s_star + 0.25) <= 1e-12, f"s* = {s_star!r}")
    )
    # The closed forms are minima: a brute-force offset sweep of the same
    # spectrum never goes below them and comes within the sweep's resolution.
    for sc in (coh, bs):
        delta, s_min, _ = closed_optimum(sc)
        swept = swept_minimum(sc)
        at_delta = float(spectrum(*coefficients(with_offset(sc, delta)), sc.omega0))
        ok = swept >= s_min - 1e-12 and swept - s_min < 1e-4 and abs(at_delta - s_min) < 1e-12
        results.append(
            (f"{sc.kind} closed form is the swept minimum", ok,
             f"closed {s_min!r}, swept {swept!r}, S(closed phase) {at_delta!r}")
        )
    return results


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    failures = 0
    for name, ok, detail in self_test(root / "configs"):
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    sys.exit(1 if failures else 0)
