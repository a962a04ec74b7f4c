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
differs between kinds (pulse count, coherent pulses, problem, averages,
default reference) sits in one table.

A run evaluates each pulse once, as a :class:`~kerrstokes.pulse.LocalPulse`
record at the analysis time, and everything else reads those records:
validation (the default reference and the beam-splitter contract), the
kind's problem, the default reference of the spectrum and the averages.  A
kind's problem is the tuple ``(family, offset, records, closed, contract)``
of one :mod:`kerrstokes.optimize` builder, chosen by the Stokes component: a
run builds it once and takes the optimum from it.  The offset then moves the
free pulse's record, the kernel is ``family(phase)`` at that record's phase,
so the spectrum comes from the family the optimizer scanned, and the
averages read the moved records.  Cross coupling is record data: validation
rejects gamma_x != 0 outside xpm, so a run hands every kind its records
unchanged, and two_sq and xpm share one builder.  The beam-splitter code
reads the SPM phases phi + phi_lin alone.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import optimize, spectra, stokes
from .errors import ConfigValidationError, ValidationIssue, _finite_number
from .kernel import RelaxationKernel
from .optimize import PhaseOptimum, _bs_contract_issues
from .pulse import GAMMA_WEAK_LIMIT, LocalPulse, PulseSpec, _unsigned_zero
from .spectra import SpectrumSeries, StokesIndex, spectrum
from .stokes import BS_UNITARITY_TOL, StokesSummary

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
    still be constructed and reported.  Each coefficient must be a finite
    int or float; a bool is not a number and is refused.
    """

    r: float
    t: float

    def __post_init__(self):
        for name in ("r", "t"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


# Largest accepted OmegaGrid.count, over 8x the largest benchmark grid.  The
# spectrum arrays grow linearly with the grid, while the writers hold one
# chunk of text at a time: a ``kerrstokes run`` at 10^6 points peaks at 62 MB
# RSS with either --format (minimum of 3 runs; CPython 3.11, numpy 2, x86_64;
# 32 MB at 2 points), so a mistyped --grid cannot ask for gigabytes.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class OmegaGrid:
    """Uniform grid of reduced frequencies Omega = omega tau_r, with
    2 <= count <= MAX_GRID_POINTS.

    The grid is built once, on construction, and kept read-only: every run
    of a config shares it."""

    start: float = 0.0
    stop: float = 5.0
    count: int = 512
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.stop <= self.start:
            raise ValueError(f"stop must exceed start, got [{self.start}, {self.stop}]")
        if not isinstance(self.count, int) or not 2 <= self.count <= MAX_GRID_POINTS:
            raise ValueError(
                f"count must be an integer in [2, {MAX_GRID_POINTS}], got {self.count!r}"
            )
        grid = np.linspace(self.start, self.stop, self.count)
        if not (grid[1:] > grid[:-1]).all():
            raise ValueError(
                f"the {self.count} points of [{self.start!r}, {self.stop!r}] are not "
                "distinct in double precision"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "_grid", grid)

    def to_array(self) -> np.ndarray:
        """The grid, read-only and the same array on every call."""
        return self._grid


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: its kind, pulses, medium, and what :func:`run` computes.

    ``omega_grid`` and ``omega0`` are reduced frequencies
    Omega = omega * tau_r, so :func:`run` never reads ``medium``: its
    ``tau_r`` changes no run or figure output.  The field records the
    medium the reduced frequencies refer to.  ``analysis_time``, and
    ``omega0`` and ``normalization`` when set, must be finite ints or
    floats; a bool is not a number and is refused.  An ``omega0`` of -0.0 is
    stored as +0.0, as :class:`PulseSpec` stores its numbers.
    """

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
        if not _finite_number(self.analysis_time):
            raise ValueError(f"analysis_time must be finite, got {self.analysis_time!r}")
        if not isinstance(self.stokes_index, StokesIndex):
            raise ValueError(f"stokes_index must be a StokesIndex, got {self.stokes_index!r}")
        if not isinstance(self.omega_grid, OmegaGrid):
            raise ValueError(f"omega_grid must be an OmegaGrid, got {self.omega_grid!r}")
        if self.beamsplitter is not None and not isinstance(self.beamsplitter, BeamSplitter):
            raise ValueError(f"beamsplitter must be a BeamSplitter, got {self.beamsplitter!r}")
        for name in ("omega0", "normalization"):
            value = getattr(self, name)
            if value is not None and not _finite_number(value):
                raise ValueError(f"{name} must be a finite number or None, got {value!r}")
        object.__setattr__(self, "omega0", _unsigned_zero(self.omega0))


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
    return _issues(config, _records(config))


def _records(config: ScenarioConfig) -> tuple[LocalPulse, ...]:
    """Each pulse of ``config`` at its analysis time: one envelope evaluation each."""
    return tuple(p.at(config.analysis_time) for p in config.pulses)


def _issues(config, records):
    """:func:`collect_issues`, reading the pulses' records."""
    errors: list[ValidationIssue] = []
    warns: list[ValidationIssue] = []
    kind = config.kind

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
    elif config.normalization is None and _KINDS[kind].reference(config, records) <= 0.0:
        errors.append(
            ValidationIssue(
                "scenario.normalization",
                "default reference intensity vanishes at the analysis time; "
                "set an explicit normalization",
            )
        )

    if config.omega0 is not None and config.omega0 >= 0.0:
        _optimization_issues(config, records, errors, warns)
    return errors, warns


def _optimization_issues(config, records, errors, warns):
    """Contract checks that only matter once an optimization is requested."""
    kind = config.kind
    index = config.stokes_index
    if kind is ScenarioKind.BS_INTERF:
        a, b = records[:2]
        errors.extend(ValidationIssue("pulses", m) for m in _bs_contract_issues(a, b, index))
    elif index in (StokesIndex.S0, StokesIndex.S1):
        warns.append(
            ValidationIssue(
                "scenario.stokes_index",
                f"{index.value} is conserved in {kind.value}; the spectrum is flat "
                "and the phase optimum is degenerate",
            )
        )


def _enforce(config: ScenarioConfig, records) -> list[ValidationIssue]:
    """:func:`validate` on the pulses' records, returning the warnings it issued."""
    errors, warns = _issues(config, records)
    if errors:
        raise ConfigValidationError(errors)
    for issue in warns:
        warnings.warn(f"{issue.field}: {issue.message}", ValidationWarning, stacklevel=3)
    return warns


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Raise ConfigValidationError on any fatal issue; warn on the rest."""
    _enforce(config, _records(config))
    return config


def _photon_number(index: StokesIndex) -> bool:
    return index in (StokesIndex.S0, StokesIndex.S1)


@dataclass(frozen=True)
class _Kind:
    """How :func:`run` evaluates one scenario kind; each callable takes the
    config and its pulses' records, which validation has checked."""

    pulse_count: int
    coherent: tuple[tuple[int, str], ...]  # (pulse index, role) of pulses with gamma == 0
    problem: Callable  # -> (family, offset, records, closed, contract), see optimize
    averages: Callable  # -> StokesSummary
    reference: Callable  # -> shot-noise intensity of S* by default


def _single_port(problem, coherent=()) -> _Kind:
    """Entry of a single-port kind whose problem is the ``optimize`` builder
    ``problem`` on the configured Stokes component.  The problem and the
    averages read the records' cross coupling, which validation has checked
    is 0 outside xpm."""
    return _Kind(
        pulse_count=2,
        coherent=coherent,
        problem=lambda config, r: problem(r[0], r[1], config.stokes_index),
        averages=lambda config, r: stokes._single_port_averages(r[0], r[1]),
        reference=lambda config, r: r[0].nbar,
    )


def _bs_problem(config, r):
    bs, index = config.beamsplitter, config.stokes_index
    if _photon_number(index):
        return optimize._bs_s01(r[0], r[1], bs, index)
    return optimize._bs_s2(r[0], r[1], r[2], bs, index)


def _bs_reference(config, r):
    if _photon_number(config.stokes_index):
        return r[0].nbar + r[1].nbar
    return r[2].nbar


_KINDS = {
    ScenarioKind.COH_SQ: _single_port(optimize._coh_sq, coherent=((0, "pulse 1"),)),
    ScenarioKind.TWO_SQ: _single_port(optimize._two_sq),
    ScenarioKind.XPM: _single_port(optimize._two_sq),
    ScenarioKind.BS_INTERF: _Kind(
        pulse_count=3,
        coherent=((2, "probe pulse"),),
        problem=_bs_problem,
        averages=lambda config, r: stokes._bs_averages(*r, config.beamsplitter),
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
    records = _records(config)
    warns = _enforce(config, records)
    kind = _KINDS[config.kind]
    problem = kind.problem(config, records)
    family, offset = problem[:2]
    optimum = None
    if config.omega0 is not None:
        optimum = optimize._optimize(*problem, config.omega0, config.stokes_index)
        chosen = (
            optimum.delta_phi_opt
            if math.isfinite(optimum.delta_phi_opt)
            else optimum.delta_phi_numeric
        )
        # a finite phase, as PulseSpec.with_phase would check: phi_lin is a checked
        # PulseSpec field and chosen is finite or the scan's phase in [0, 2pi)
        records = offset.apply(records, chosen)
    # the family reads the free pulse's phase only through its argument
    kern = spectra._kernel(family, records[offset.free].phi_lin)
    reference = config.normalization
    if reference is None:
        reference = kind.reference(config, records)
    series = spectrum(kern, config.omega_grid.to_array(), reference)
    summary = kind.averages(config, records)
    return ScenarioResult(config, summary, series, optimum, tuple(warns))
