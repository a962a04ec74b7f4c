"""Preset parameter sets for the reference figures.

Each preset reproduces one spectrum figure: a family of normalized
fluctuation spectra S*(Omega) on the standard 512-point grid over
[0, 5], phase-optimized at the figure's Omega0.  Curve labels follow the
order of the underlying parameter families (a, b, c, ...).

Figure 7 is a measurement-layout schematic and deliberately has no data
series; asking for it raises, as does an id outside 1..12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _config(kind, pulses, omega0, stokes_index=StokesIndex.S2, beamsplitter=None):
    """One curve: a scenario on the standard medium and grid."""
    return ScenarioConfig(
        kind=kind,
        pulses=pulses,
        medium=_MEDIUM,
        stokes_index=stokes_index,
        omega_grid=_GRID,
        beamsplitter=beamsplitter,
        omega0=omega0,
    )


def _coh_sq_family(omega0):
    # Weak coherent reference (nbar1 = 1) against a bright Kerr pulse whose
    # peak SPM phase steps through 0.5 .. 3 rad.
    return tuple(
        _config(ScenarioKind.COH_SQ, (PulseSpec(1.0), PulseSpec(100.0, gamma=phi0 / 200.0)), omega0)
        for phi0 in (0.5, 1.0, 2.0, 3.0)
    )


def _two_sq_family(omega0):
    # Fixed pulse 1 (nbar = 100, gamma = 0.01); pulse 2 keeps gamma = 0.005
    # while its intensity grows as k * 100, k = 1, 2, 3, 5, 7.
    return tuple(
        _config(
            ScenarioKind.TWO_SQ,
            (PulseSpec(100.0, gamma=0.01), PulseSpec(100.0 * k, gamma=0.005)),
            omega0,
        )
        for k in (1.0, 2.0, 3.0, 5.0, 7.0)
    )


def _xpm_intensity_family():
    # Mutual cross coupling gamma_x = 0.005; pulse 2 intensity sweeps
    # k * 100 for k = 1/4, 1/2, 1, 3.
    return tuple(
        _config(
            ScenarioKind.XPM,
            (
                PulseSpec(100.0, gamma=0.01, gamma_x=0.005),
                PulseSpec(100.0 * k, gamma=0.04, gamma_x=0.005),
            ),
            0.0,
        )
        for k in (0.25, 0.5, 1.0, 3.0)
    )


def _xpm_coupling_family():
    # Equal intensities; the coupling ratio gamma2 / gamma1 sweeps 2 .. 7.
    return tuple(
        _config(
            ScenarioKind.XPM,
            (
                PulseSpec(100.0, gamma=0.01, gamma_x=0.005),
                PulseSpec(100.0, gamma=0.01 * m, gamma_x=0.005),
            ),
            0.0,
        )
        for m in (2, 3, 4, 5, 6, 7)
    )


def _bs_s01_family(index, omega0):
    # Balanced splitter, equal Kerr couplings (the closed form's balance
    # manifold), few-photon intensities nbar1 = 1, nbar2 = 1.5 or 2 and a
    # peak SPM phase phi1 = 0.9 rad, which keeps the arccos argument inside
    # [-1, 1] for both Omega0 = 0 and Omega0 = 1.  The probe carries no
    # photons: S0/S1 do not see it.
    return tuple(
        _config(
            ScenarioKind.BS_INTERF,
            (PulseSpec(1.0, gamma=0.45), PulseSpec(n2, gamma=0.45), PulseSpec(0.0)),
            omega0,
            index,
            BeamSplitter(0.5, 0.5),
        )
        for n2 in (1.5, 2.0)
    )


def _bs_s2_family():
    # Balanced splitter, equal bright pulses locked in quadrature
    # (phi_lin1 - phi_lin2 = pi/2) and a bright coherent probe; the peak
    # SPM phase steps through 0.5 .. 1.25 rad.
    return tuple(
        _config(
            ScenarioKind.BS_INTERF,
            (
                PulseSpec(100.0, gamma=phi0 / 200.0, phi_lin=0.5 * math.pi),
                PulseSpec(100.0, gamma=phi0 / 200.0),
                PulseSpec(100.0),
            ),
            0.0,
            StokesIndex.S2,
            BeamSplitter(0.5, 0.5),
        )
        for phi0 in (0.5, 0.75, 1.0, 1.25)
    )


# figure id -> (description, curve family); figure 7 has no entry.
_FIGURES = {
    1: ("coherent + Kerr pulse, optimized at Omega0 = 0", lambda: _coh_sq_family(0.0)),
    2: ("coherent + Kerr pulse, optimized at Omega0 = 1", lambda: _coh_sq_family(1.0)),
    3: ("two Kerr pulses, intensity sweep, Omega0 = 0", lambda: _two_sq_family(0.0)),
    4: ("two Kerr pulses, intensity sweep, Omega0 = 1", lambda: _two_sq_family(1.0)),
    5: ("cross coupling, partner-intensity sweep, Omega0 = 0", _xpm_intensity_family),
    6: ("cross coupling, coupling-ratio sweep, Omega0 = 0", _xpm_coupling_family),
    8: ("beam splitter, S0, Omega0 = 0", lambda: _bs_s01_family(StokesIndex.S0, 0.0)),
    9: ("beam splitter, S1, Omega0 = 0", lambda: _bs_s01_family(StokesIndex.S1, 0.0)),
    10: ("beam splitter, S0, Omega0 = 1", lambda: _bs_s01_family(StokesIndex.S0, 1.0)),
    11: ("beam splitter, S1, Omega0 = 1", lambda: _bs_s01_family(StokesIndex.S1, 1.0)),
    12: ("beam splitter + probe, S2, Omega0 = 0", _bs_s2_family),
}


def figure_preset(figure_id: int) -> FigurePreset:
    """Return the preset for one figure; raises ValueError for 7 and unknown ids."""
    if figure_id == 7:
        raise ValueError("figure 7 is a measurement-layout schematic with no data series")
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id}; available: 1..12 (7 has no data)")
    description, family = _FIGURES[figure_id]
    configs = family()
    return FigurePreset(figure_id, description, tuple("abcdefghij"[: len(configs)]), configs)
