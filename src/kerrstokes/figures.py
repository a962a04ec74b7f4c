"""Preset parameter sets for the reference figures.

Each preset reproduces one spectrum figure: a family of normalized
fluctuation spectra S*(Omega) on the standard 512-point grid over
[0, 5], phase-optimized at the figure's Omega0.  Curve labels follow the
order of the swept values (a, b, c, ...).

Every figure is data.  ``_FIGURES`` maps a figure id to its description
and a builder, which returns ``(base, fields, values)``: a base
:class:`ScenarioConfig` on the standard medium and grid, the pulse fields
the figure sweeps, named ``pulseN.<name>`` (``("pulse2.n0",)``, or
``("pulse1.gamma", "pulse2.gamma")`` for figure 12), and one value per
curve.  ``_vary(base, fields, value)`` sets that value on each named field
through ``dataclasses.replace``; a base is built only when its preset is
asked for, never at import, since the beam-splitter figures use a Kerr
coupling whose ``PulseSpec`` warns when it is made.

Figure 7 is a measurement-layout schematic and deliberately has no data
series; asking for it raises, as does an id outside 1..12 or one that is
not an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .pulse import PulseSpec
from .kernel import RelaxationKernel
from .scenario import BeamSplitter, OmegaGrid, ScenarioConfig, ScenarioKind
from .spectra import StokesIndex

__all__ = ["FigurePreset", "figure_preset", "FIGURE_IDS"]

FIGURE_IDS = tuple(range(1, 13))

_GRID = OmegaGrid(0.0, 5.0, 512)
_MEDIUM = RelaxationKernel(1.0)


@dataclass(frozen=True)
class FigurePreset:
    figure_id: int
    description: str
    labels: tuple[str, ...]
    configs: tuple[ScenarioConfig, ...]


def _vary(base: ScenarioConfig, fields: tuple[str, ...], value) -> ScenarioConfig:
    """``base`` with ``value`` set on each pulse field ``pulseN.<name>`` of ``fields``."""
    pulses = list(base.pulses)
    for path in fields:
        pulse, name = path.split(".")
        i = int(pulse.removeprefix("pulse")) - 1
        pulses[i] = replace(pulses[i], **{name: value})
    return replace(base, pulses=tuple(pulses))


def _like(figure_id: int, **changes):
    """The builder output of ``figure_id`` with ``changes`` made to its base."""
    base, fields, values = _FIGURES[figure_id][1]()
    return replace(base, **changes), fields, values


# figure id -> (description, builder of (base, varied pulse fields, values));
# figure 7 has no entry.
_FIGURES = {
    # Weak coherent reference (nbar1 = 1) against a bright Kerr pulse whose
    # peak SPM phase steps through 0.5 .. 3 rad.
    1: ("coherent + Kerr pulse, optimized at Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.COH_SQ, (PulseSpec(1.0), PulseSpec(100.0)), _MEDIUM,
                       omega_grid=_GRID, omega0=0.0),
        ("pulse2.gamma",), tuple(phi0 / 200.0 for phi0 in (0.5, 1.0, 2.0, 3.0)))),
    2: ("coherent + Kerr pulse, optimized at Omega0 = 1", lambda: _like(1, omega0=1.0)),
    # Fixed pulse 1 (nbar = 100, gamma = 0.01); pulse 2 keeps gamma = 0.005
    # while its intensity grows as k * 100, k = 1, 2, 3, 5, 7.
    3: ("two Kerr pulses, intensity sweep, Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.TWO_SQ, (PulseSpec(100.0, gamma=0.01),
                       PulseSpec(100.0, gamma=0.005)), _MEDIUM, omega_grid=_GRID, omega0=0.0),
        ("pulse2.n0",), tuple(100.0 * k for k in (1.0, 2.0, 3.0, 5.0, 7.0)))),
    4: ("two Kerr pulses, intensity sweep, Omega0 = 1", lambda: _like(3, omega0=1.0)),
    # Mutual cross coupling gamma_x = 0.005; pulse 2 intensity sweeps
    # k * 100 for k = 1/4, 1/2, 1, 3.
    5: ("cross coupling, partner-intensity sweep, Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.XPM, (PulseSpec(100.0, gamma=0.01, gamma_x=0.005),
                       PulseSpec(100.0, gamma=0.04, gamma_x=0.005)), _MEDIUM,
                       omega_grid=_GRID, omega0=0.0),
        ("pulse2.n0",), tuple(100.0 * k for k in (0.25, 0.5, 1.0, 3.0)))),
    # Equal intensities; the coupling ratio gamma2 / gamma1 sweeps 2 .. 7.
    6: ("cross coupling, coupling-ratio sweep, Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.XPM, (PulseSpec(100.0, gamma=0.01, gamma_x=0.005),
                       PulseSpec(100.0, gamma_x=0.005)), _MEDIUM, omega_grid=_GRID, omega0=0.0),
        ("pulse2.gamma",), tuple(0.01 * m for m in range(2, 8)))),
    # Balanced splitter, equal Kerr couplings (the closed form's balance
    # manifold), few-photon intensities nbar1 = 1, nbar2 = 1.5 or 2 and a
    # peak SPM phase phi1 = 0.9 rad, which keeps the arccos argument inside
    # [-1, 1] for both Omega0 = 0 and Omega0 = 1.  The probe carries no
    # photons: S0/S1 do not see it.
    8: ("beam splitter, S0, Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.BS_INTERF, (PulseSpec(1.0, gamma=0.45),
                       PulseSpec(1.5, gamma=0.45), PulseSpec(0.0)), _MEDIUM,
                       stokes_index=StokesIndex.S0, omega_grid=_GRID,
                       beamsplitter=BeamSplitter(0.5, 0.5), omega0=0.0),
        ("pulse2.n0",), (1.5, 2.0))),
    9: ("beam splitter, S1, Omega0 = 0", lambda: _like(8, stokes_index=StokesIndex.S1)),
    10: ("beam splitter, S0, Omega0 = 1", lambda: _like(8, omega0=1.0)),
    11: ("beam splitter, S1, Omega0 = 1",
         lambda: _like(8, stokes_index=StokesIndex.S1, omega0=1.0)),
    # Balanced splitter, equal bright pulses locked in quadrature
    # (phi_lin1 - phi_lin2 = pi/2) and a bright coherent probe; the peak
    # SPM phase steps through 0.5 .. 1.25 rad.
    12: ("beam splitter + probe, S2, Omega0 = 0", lambda: (
        ScenarioConfig(ScenarioKind.BS_INTERF, (PulseSpec(100.0, phi_lin=0.5 * math.pi),
                       PulseSpec(100.0), PulseSpec(100.0)), _MEDIUM, omega_grid=_GRID,
                       beamsplitter=BeamSplitter(0.5, 0.5), omega0=0.0),
        ("pulse1.gamma", "pulse2.gamma"),
        tuple(phi0 / 200.0 for phi0 in (0.5, 0.75, 1.0, 1.25)))),
}


def figure_preset(figure_id: int) -> FigurePreset:
    """Return the preset for one figure; raises ValueError for 7, for an id
    outside 1..12 and for one that is not an int (a bool included)."""
    if type(figure_id) is int and figure_id == 7:
        raise ValueError("figure 7 is a measurement-layout schematic with no data series")
    if type(figure_id) is not int or figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id}; available: 1..12 (7 has no data)")
    description, build = _FIGURES[figure_id]
    base, fields, values = build()
    configs = tuple(_vary(base, fields, value) for value in values)
    return FigurePreset(figure_id, description, tuple("abcdefghij"[: len(configs)]), configs)
