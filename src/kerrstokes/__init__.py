"""Quantum Stokes parameters and squeezing spectra of ultrashort pulses in
relaxing electronic Kerr media.

The package computes, for four pulse-overlap scenarios, the average quantum
Stokes parameters after self- and cross-phase modulation, the normally
ordered Stokes-fluctuation spectra S(Omega) with their universal
delta + h + g correlation-kernel structure, and the linear phase offsets
that minimize S at a chosen frequency -- each closed form paired with an
independent numerical route (quadrature, phase scans, phasor arithmetic).
"""

from .errors import (
    ApproximationWarning,
    ConfigParseError,
    ConfigValidationError,
    ScenarioContractError,
    ValidationIssue,
)
from .kernel import RelaxationKernel, fourier_g_closed, fourier_h_closed, lorentzian
from .optimize import (
    PhaseOptimum,
    optimal_phase_bs_s01,
    optimal_phase_bs_s2,
    optimal_phase_coh_sq,
    optimal_phase_two_sq,
    optimal_phase_xpm,
    scan_phase,
)
from .oracle import mc_coherent_phasor, wk_numeric
from .pulse import Envelope, EnvelopeShape, PulseSpec
from .scenario import (
    BeamSplitter,
    OmegaGrid,
    ScenarioConfig,
    ScenarioKind,
    ScenarioResult,
    ValidationWarning,
    collect_issues,
    run,
    validate,
)
from .spectra import (
    CorrelationKernel,
    SpectrumSeries,
    StokesIndex,
    kernel_bs_s01,
    kernel_bs_s2,
    kernel_coh_sq,
    kernel_two_sq,
    kernel_xpm,
    spectrum,
    spectrum_value,
)
from .stokes import (
    StokesSummary,
    averages_bs,
    averages_coh_sq,
    averages_two_sq,
    averages_xpm,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationWarning",
    "BeamSplitter",
    "ConfigParseError",
    "ConfigValidationError",
    "CorrelationKernel",
    "Envelope",
    "EnvelopeShape",
    "OmegaGrid",
    "PhaseOptimum",
    "PulseSpec",
    "RelaxationKernel",
    "ScenarioConfig",
    "ScenarioContractError",
    "ScenarioKind",
    "ScenarioResult",
    "SpectrumSeries",
    "StokesIndex",
    "StokesSummary",
    "ValidationIssue",
    "ValidationWarning",
    "averages_bs",
    "averages_coh_sq",
    "averages_two_sq",
    "averages_xpm",
    "collect_issues",
    "fourier_g_closed",
    "fourier_h_closed",
    "kernel_bs_s01",
    "kernel_bs_s2",
    "kernel_coh_sq",
    "kernel_two_sq",
    "kernel_xpm",
    "lorentzian",
    "mc_coherent_phasor",
    "optimal_phase_bs_s01",
    "optimal_phase_bs_s2",
    "optimal_phase_coh_sq",
    "optimal_phase_two_sq",
    "optimal_phase_xpm",
    "run",
    "scan_phase",
    "spectrum",
    "spectrum_value",
    "validate",
    "wk_numeric",
]
