"""Scenario configuration, validation and end-to-end runs.

A :class:`ScenarioConfig` bundles everything one measurement needs: the
overlap scenario, the pulses, the medium relaxation time, the analysis
time, the Stokes component, the reduced-frequency grid, and optionally a
beam splitter, an optimization frequency Omega0 and a normalization
override.  :func:`validate` checks the semantic contracts and either
raises a :class:`~kerrstokes.errors.ConfigValidationError` carrying all
problems at once or returns the config (emitting structured warnings for
non-fatal findings).  :func:`run` produces average Stokes parameters, the
fluctuation spectrum on the grid and, when Omega0 is given, the phase
optimum; the spectrum is then evaluated at the optimal phase offset.  What
differs between kinds (pulse count, coherent pulses, kernel, averages,
optimum, default reference) sits in one table, which also holds each
Stokes component's phase-offset record (:class:`kerrstokes.optimize.Offset`),
the one its optimizer scans under.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import optimize, spectra, stokes
from .errors import ConfigValidationError, ValidationIssue
from .kernel import RelaxationKernel
from .optimize import (
    PhaseOptimum,
    _bs_contract_issues,
    optimal_phase_bs_s01,
    optimal_phase_bs_s2,
)
from .pulse import GAMMA_WEAK_LIMIT, PulseSpec
from .spectra import SpectrumSeries, StokesIndex, kernel_bs_s01, kernel_bs_s2, spectrum
from .stokes import BS_UNITARITY_TOL, StokesSummary, averages_bs

__all__ = [
    "ScenarioKind",
    "BeamSplitter",
    "MAX_GRID_POINTS",
    "OmegaGrid",
    "ScenarioConfig",
    "ScenarioResult",
    "ValidationWarning",
    "collect_issues",
    "validate",
    "run",
]


class ValidationWarning(UserWarning):
    """Non-fatal scenario-level finding raised by :func:`validate`."""


class ScenarioKind(enum.Enum):
    COH_SQ = "coh_sq"        # coherent pulse overlapped with a Kerr-squeezed one
    TWO_SQ = "two_sq"        # two independently Kerr-squeezed pulses
    XPM = "xpm"              # co-propagating pulses with mutual cross-Kerr coupling
    BS_INTERF = "bs_interf"  # beam-splitter mixing plus a coherent probe


@dataclass(frozen=True)
class BeamSplitter:
    """Intensity reflectance / transmittance pair.

    Each coefficient must lie in [0, 1]; the lossless condition r + t = 1
    is a cross-field constraint checked by :func:`validate` and by the
    operations that consume the splitter, so that an inconsistent pair can
    still be constructed and reported.
    """

    r: float
    t: float

    def __post_init__(self):
        for name in ("r", "t"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


# Largest accepted OmegaGrid.count, over 8x the largest benchmark grid.  The
# spectrum arrays grow linearly with the grid, while the writers hold one
# chunk of text at a time: a ``kerrstokes run`` at 10^6 points peaks at 62 MB
# RSS with either --format (minimum of 3 runs; CPython 3.11, numpy 2, x86_64;
# 31 MB at 2 points), so a mistyped --grid cannot ask for gigabytes.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class OmegaGrid:
    """Uniform grid of reduced frequencies Omega = omega tau_r, with
    2 <= count <= MAX_GRID_POINTS."""

    start: float = 0.0
    stop: float = 5.0
    count: int = 512

    def __post_init__(self):
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.stop <= self.start:
            raise ValueError(f"stop must exceed start, got [{self.start}, {self.stop}]")
        if not isinstance(self.count, int) or not 2 <= self.count <= MAX_GRID_POINTS:
            raise ValueError(
                f"count must be an integer in [2, {MAX_GRID_POINTS}], got {self.count!r}"
            )

    def to_array(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: ScenarioKind
    pulses: tuple[PulseSpec, ...]
    medium: RelaxationKernel
    analysis_time: float = 0.0
    stokes_index: StokesIndex = StokesIndex.S2
    omega_grid: OmegaGrid = OmegaGrid()
    beamsplitter: BeamSplitter | None = None
    omega0: float | None = None
    normalization: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ScenarioKind):
            raise ValueError(f"kind must be a ScenarioKind, got {self.kind!r}")
        object.__setattr__(self, "pulses", tuple(self.pulses))
        for i, pulse in enumerate(self.pulses):
            if not isinstance(pulse, PulseSpec):
                raise ValueError(f"pulses[{i}] must be a PulseSpec, got {pulse!r}")
        if not isinstance(self.medium, RelaxationKernel):
            raise ValueError(f"medium must be a RelaxationKernel, got {self.medium!r}")
        if not (isinstance(self.analysis_time, (int, float)) and math.isfinite(self.analysis_time)):
            raise ValueError(f"analysis_time must be finite, got {self.analysis_time!r}")
        if not isinstance(self.stokes_index, StokesIndex):
            raise ValueError(f"stokes_index must be a StokesIndex, got {self.stokes_index!r}")
        if not isinstance(self.omega_grid, OmegaGrid):
            raise ValueError(f"omega_grid must be an OmegaGrid, got {self.omega_grid!r}")
        if self.beamsplitter is not None and not isinstance(self.beamsplitter, BeamSplitter):
            raise ValueError(f"beamsplitter must be a BeamSplitter, got {self.beamsplitter!r}")
        for name in ("omega0", "normalization"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (int, float)) and math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number or None, got {value!r}")


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of :func:`run`; ``warnings`` holds the non-fatal issues of
    :func:`collect_issues`, which the run has already issued as warnings."""

    config: ScenarioConfig
    summary: StokesSummary
    spectrum: SpectrumSeries
    optimum: PhaseOptimum | None
    warnings: tuple[ValidationIssue, ...] = ()


def collect_issues(
    config: ScenarioConfig,
) -> tuple[list[ValidationIssue], list[ValidationIssue]]:
    """Return (errors, warnings) for a scenario config.

    Field paths follow the config-file layout: pulse1..pulse3, beamsplitter,
    scenario.omega0 and so on.
    """
    errors: list[ValidationIssue] = []
    warns: list[ValidationIssue] = []
    kind = config.kind
    t = config.analysis_time

    expected = _KINDS[kind].pulse_count
    if len(config.pulses) != expected:
        errors.append(
            ValidationIssue(
                "pulses",
                f"{kind.value} needs exactly {expected} pulses, got {len(config.pulses)}",
            )
        )
        return errors, warns  # counts are wrong; later checks would index garbage

    if kind is ScenarioKind.BS_INTERF:
        if config.beamsplitter is None:
            errors.append(ValidationIssue("beamsplitter", "bs_interf needs a beam splitter"))
        else:
            total = config.beamsplitter.r + config.beamsplitter.t
            if abs(total - 1.0) > BS_UNITARITY_TOL:
                errors.append(
                    ValidationIssue(
                        "beamsplitter",
                        f"r + t must equal 1 within {BS_UNITARITY_TOL:g}, got {total!r}",
                    )
                )
    elif config.beamsplitter is not None:
        errors.append(
            ValidationIssue("beamsplitter", f"{kind.value} does not use a beam splitter")
        )

    for i, role in _KINDS[kind].coherent:
        gamma = config.pulses[i].gamma
        if gamma != 0.0:
            errors.append(
                ValidationIssue(
                    f"pulse{i + 1}.gamma", f"{role} must be coherent (gamma == 0), got {gamma}"
                )
            )

    for i, pulse in enumerate(config.pulses, start=1):
        if kind is not ScenarioKind.XPM and pulse.gamma_x != 0.0:
            errors.append(
                ValidationIssue(
                    f"pulse{i}.gamma_x",
                    f"cross coupling only participates in the xpm scenario, got {pulse.gamma_x}",
                )
            )
        for name in ("gamma", "gamma_x"):
            value = getattr(pulse, name)
            if value > GAMMA_WEAK_LIMIT:
                warns.append(
                    ValidationIssue(
                        f"pulse{i}.{name}",
                        f"{value:g} exceeds the weak-coupling regime ({name} <= "
                        f"{GAMMA_WEAK_LIMIT}); results are perturbative",
                    )
                )

    if kind is ScenarioKind.XPM and all(p.gamma_x == 0.0 for p in config.pulses):
        warns.append(
            ValidationIssue(
                "scenario.kind",
                "xpm with gamma_x = 0 on both pulses degenerates to two_sq",
            )
        )

    if config.omega0 is not None and config.omega0 < 0.0:
        errors.append(
            ValidationIssue("scenario.omega0", f"must be >= 0, got {config.omega0}")
        )
    if config.normalization is not None and config.normalization <= 0.0:
        errors.append(
            ValidationIssue("scenario.normalization", f"must be > 0, got {config.normalization}")
        )
    elif config.normalization is None and _KINDS[kind].reference(config, t) <= 0.0:
        errors.append(
            ValidationIssue(
                "scenario.normalization",
                "default reference intensity vanishes at the analysis time; "
                "set an explicit normalization",
            )
        )

    if config.omega0 is not None and config.omega0 >= 0.0:
        _optimization_issues(config, t, errors, warns)
    return errors, warns


def _optimization_issues(config, t, errors, warns):
    """Contract checks that only matter once an optimization is requested."""
    kind = config.kind
    index = config.stokes_index
    if kind is ScenarioKind.BS_INTERF:
        p1, p2 = config.pulses[0], config.pulses[1]
        errors.extend(ValidationIssue("pulses", m) for m in _bs_contract_issues(p1, p2, t, index))
    elif index in (StokesIndex.S0, StokesIndex.S1):
        warns.append(
            ValidationIssue(
                "scenario.stokes_index",
                f"{index.value} is conserved in {kind.value}; the spectrum is flat "
                "and the phase optimum is degenerate",
            )
        )


def _enforce(config: ScenarioConfig) -> list[ValidationIssue]:
    """:func:`validate`, returning the warnings it issued."""
    errors, warns = collect_issues(config)
    if errors:
        raise ConfigValidationError(errors)
    for issue in warns:
        warnings.warn(f"{issue.field}: {issue.message}", ValidationWarning, stacklevel=3)
    return warns


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Raise ConfigValidationError on any fatal issue; warn on the rest."""
    _enforce(config)
    return config


def _photon_number(index: StokesIndex) -> bool:
    return index in (StokesIndex.S0, StokesIndex.S1)


@dataclass(frozen=True)
class _Kind:
    """How :func:`run` evaluates one scenario kind."""

    pulse_count: int
    coherent: tuple[tuple[int, str], ...]  # (pulse index, role) of pulses with gamma == 0
    kernel: Callable  # (config, pulses, t) -> CorrelationKernel
    averages: Callable  # (config, pulses, t) -> StokesSummary
    offset: dict[StokesIndex, optimize.Offset]  # the pulse phase each component's optimum sets
    optimum: Callable  # (config, t) -> PhaseOptimum at config.omega0
    reference: Callable  # (config, t) -> shot-noise intensity of S* by default


def _single_port(kind: ScenarioKind, coherent=()) -> _Kind:
    """Entry of a single-port kind.

    Its builders are the public ``spectra.kernel_<kind>``,
    ``stokes.averages_<kind>`` and ``optimize.optimal_phase_<kind>``, looked
    up when called, so tools that rebind module attributes (profilers,
    mocks) see every call.  Each is handed the configured Stokes component
    where it takes one; the optimizer then scans that component's kernel.
    """
    name = kind.value
    return _Kind(
        pulse_count=2,
        coherent=coherent,
        kernel=lambda config, p, t: getattr(spectra, f"kernel_{name}")(
            p[0], p[1], t, config.stokes_index
        ),
        averages=lambda config, p, t: getattr(stokes, f"averages_{name}")(p[0], p[1], t),
        offset=dict.fromkeys(StokesIndex, optimize.SINGLE_PORT_OFFSET),
        optimum=lambda config, t: getattr(optimize, f"optimal_phase_{name}")(
            config.pulses[0], config.pulses[1], t, config.omega0, config.stokes_index
        ),
        reference=lambda config, t: config.pulses[0].mean_photons(t),
    )


def _bs_kernel(config, p, t):
    if _photon_number(config.stokes_index):
        return kernel_bs_s01(p[0], p[1], config.beamsplitter, t, config.stokes_index)
    return kernel_bs_s2(p[0], p[1], p[2], config.beamsplitter, t, config.stokes_index)


def _bs_optimum(config, t):
    p, bs, index = config.pulses, config.beamsplitter, config.stokes_index
    if _photon_number(index):
        return optimal_phase_bs_s01(p[0], p[1], bs, t, config.omega0, which=index)
    return optimal_phase_bs_s2(p[0], p[1], p[2], bs, t, config.omega0, index)


def _bs_reference(config, t):
    p = config.pulses
    if _photon_number(config.stokes_index):
        return p[0].mean_photons(t) + p[1].mean_photons(t)
    return p[2].mean_photons(t)


_KINDS = {
    ScenarioKind.COH_SQ: _single_port(ScenarioKind.COH_SQ, coherent=((0, "pulse 1"),)),
    ScenarioKind.TWO_SQ: _single_port(ScenarioKind.TWO_SQ),
    ScenarioKind.XPM: _single_port(ScenarioKind.XPM),
    ScenarioKind.BS_INTERF: _Kind(
        pulse_count=3,
        coherent=((2, "probe pulse"),),
        kernel=_bs_kernel,
        averages=lambda config, p, t: averages_bs(p[0], p[1], p[2], config.beamsplitter, t),
        offset={
            index: optimize.BS_INPUT_OFFSET if _photon_number(index) else optimize.BS_PROBE_OFFSET
            for index in StokesIndex
        },
        optimum=_bs_optimum,
        reference=_bs_reference,
    ),
}


def run(config: ScenarioConfig) -> ScenarioResult:
    """Validate, optionally phase-optimize, and evaluate one scenario.

    When ``omega0`` is set, the returned spectrum and Stokes averages are
    evaluated at the optimal phase offset (the closed-form one when finite
    and feasible, otherwise the scanned one); without it the configured
    linear phases are used as given.  Runs are deterministic: identical
    configs produce bit-identical results.
    """
    warns = _enforce(config)
    kind = _KINDS[config.kind]
    t = config.analysis_time
    pulses = config.pulses
    optimum = None
    if config.omega0 is not None:
        optimum = kind.optimum(config, t)
        chosen = (
            optimum.delta_phi_opt
            if math.isfinite(optimum.delta_phi_opt)
            else optimum.delta_phi_numeric
        )
        pulses = kind.offset[config.stokes_index].apply(pulses, chosen)
    kern = kind.kernel(config, pulses, t)
    reference = (
        config.normalization if config.normalization is not None else kind.reference(config, t)
    )
    series = spectrum(kern, config.omega_grid.to_array(), reference)
    summary = kind.averages(config, pulses, t)
    return ScenarioResult(config, summary, series, optimum, tuple(warns))
