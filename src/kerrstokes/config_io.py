"""INI-style config files for scenario runs.

Layout (see ``data/reference_config.ini`` for a fully commented example)::

    [scenario]                 kind, stokes_index, analysis_time,
                               omega0, normalization
    [medium]                   tau_r
    [grid]                     start, stop, count
    [pulse1] .. [pulse3]       n0, envelope, tau_p, gamma | beta + length,
                               gamma_x | beta_x (+ length), phi_lin
    [beamsplitter]             r, t

The Kerr couplings can be given directly (``gamma``) or as a nonlinearity
coefficient times the propagation length (``beta`` and ``length``), which
are folded into ``gamma = beta * length`` while parsing; giving both forms
for one pulse is rejected.  Unknown sections or keys are rejected too, so
typos do not silently fall back to defaults.

Error classes: unreadable text or non-numeric values raise
:class:`~kerrstokes.errors.ConfigParseError`; structurally sound but
invalid content raises :class:`~kerrstokes.errors.ConfigValidationError`
with one :class:`~kerrstokes.errors.ValidationIssue` per problem.
"""

from __future__ import annotations

import configparser

from .errors import ConfigParseError, ConfigValidationError, ValidationIssue
from .kernel import RelaxationKernel
from .pulse import Envelope, EnvelopeShape, PulseSpec
from .scenario import _KINDS, BeamSplitter, OmegaGrid, ScenarioConfig, ScenarioKind
from .spectra import StokesIndex

__all__ = ["load_config", "dump_reference_path"]

_KEYS = {
    "scenario": {"kind", "stokes_index", "analysis_time", "omega0", "normalization"},
    "medium": {"tau_r"},
    "grid": {"start", "stop", "count"},
    "pulse": {"n0", "envelope", "tau_p", "gamma", "beta", "gamma_x", "beta_x", "length", "phi_lin"},
    "beamsplitter": {"r", "t"},
}


def _parse_float(raw: str, field: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigParseError(f"{field}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigParseError(f"{field}: expected an integer, got {raw!r}") from None


class _Section:
    """One INI section with typed getters tracking which keys were consumed."""

    def __init__(self, parser, name, issues):
        self.name = name
        self.issues = issues
        self.present = parser.has_section(name)
        self.raw = dict(parser.items(name)) if self.present else {}

    def get_float(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                self.issues.append(ValidationIssue(f"{self.name}.{key}", "required key is missing"))
            return default
        return _parse_float(self.raw.pop(key), f"{self.name}.{key}")

    def get_int(self, key, default=None):
        if key not in self.raw:
            return default
        return _parse_int(self.raw.pop(key), f"{self.name}.{key}")

    def get_str(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                self.issues.append(ValidationIssue(f"{self.name}.{key}", "required key is missing"))
            return default
        return self.raw.pop(key).strip()

    def reject_leftovers(self, allowed):
        for key in sorted(self.raw):
            hint = f"unknown key (allowed: {', '.join(sorted(allowed))})"
            self.issues.append(ValidationIssue(f"{self.name}.{key}", hint))


def _enum_by_value(enum_cls, raw, field, issues):
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        issues.append(ValidationIssue(field, f"must be one of: {choices}; got {raw!r}"))
        return None


def _build_pulse(section: _Section, issues) -> PulseSpec | None:
    n0 = section.get_float("n0", required=True)
    shape_raw = section.get_str("envelope", default="constant")
    shape = _enum_by_value(EnvelopeShape, shape_raw, f"{section.name}.envelope", issues)
    tau_p = section.get_float("tau_p")
    phi_lin = section.get_float("phi_lin", default=0.0)
    length = section.get_float("length")

    def coupling(direct_key, beta_key):
        direct = section.get_float(direct_key)
        beta = section.get_float(beta_key)
        if direct is not None and beta is not None:
            issues.append(
                ValidationIssue(
                    f"{section.name}.{direct_key}",
                    f"give either {direct_key} or {beta_key} * length, not both",
                )
            )
            return direct
        if beta is not None:
            if length is None:
                issues.append(
                    ValidationIssue(
                        f"{section.name}.{beta_key}", "needs a propagation length to fold into gamma"
                    )
                )
                return 0.0
            return beta * length
        return direct if direct is not None else 0.0

    gamma = coupling("gamma", "beta")
    gamma_x = coupling("gamma_x", "beta_x")
    section.reject_leftovers(_KEYS["pulse"])
    if n0 is None or shape is None:
        return None
    try:
        envelope = Envelope(shape, tau_p)
    except ValueError as exc:
        issues.append(ValidationIssue(f"{section.name}.tau_p", str(exc)))
        return None
    try:
        return PulseSpec(n0=n0, envelope=envelope, gamma=gamma, gamma_x=gamma_x, phi_lin=phi_lin)
    except ValueError as exc:
        issues.append(ValidationIssue(section.name, str(exc)))
        return None


def load_config(path) -> ScenarioConfig:
    """Parse an INI scenario file into a ScenarioConfig.

    Raises OSError if unreadable, ConfigParseError on malformed text or
    values, ConfigValidationError on semantic problems.  The returned
    config still has to pass :func:`kerrstokes.scenario.validate` (the CLI
    runs it; library users should too).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigParseError(f"bad config syntax: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"config is not UTF-8 text: {exc}") from None

    issues: list[ValidationIssue] = []
    known = {"scenario", "medium", "grid", "pulse1", "pulse2", "pulse3", "beamsplitter"}
    for name in parser.sections():
        if name not in known:
            issues.append(
                ValidationIssue(name, f"unknown section (allowed: {', '.join(sorted(known))})")
            )

    scenario = _Section(parser, "scenario", issues)
    if not scenario.present:
        issues.append(ValidationIssue("scenario", "required section is missing"))
        raise ConfigValidationError(issues)

    kind_raw = scenario.get_str("kind", required=True)
    kind = _enum_by_value(ScenarioKind, kind_raw, "scenario.kind", issues) if kind_raw else None
    index_raw = scenario.get_str("stokes_index", default="S2")
    index = _enum_by_value(StokesIndex, index_raw, "scenario.stokes_index", issues)
    analysis_time = scenario.get_float("analysis_time", default=0.0)
    omega0 = scenario.get_float("omega0")
    normalization = scenario.get_float("normalization")
    scenario.reject_leftovers(_KEYS["scenario"])

    medium_sec = _Section(parser, "medium", issues)
    tau_r = medium_sec.get_float("tau_r", default=1.0)
    medium_sec.reject_leftovers(_KEYS["medium"])
    medium = None
    try:
        medium = RelaxationKernel(tau_r)
    except ValueError as exc:
        issues.append(ValidationIssue("medium.tau_r", str(exc)))

    grid_sec = _Section(parser, "grid", issues)
    start = grid_sec.get_float("start", default=0.0)
    stop = grid_sec.get_float("stop", default=5.0)
    count = grid_sec.get_int("count", default=512)
    grid_sec.reject_leftovers(_KEYS["grid"])
    grid = None
    try:
        grid = OmegaGrid(start, stop, count)
    except ValueError as exc:
        issues.append(ValidationIssue("grid", str(exc)))

    pulses = []
    for i in (1, 2, 3):
        section = _Section(parser, f"pulse{i}", issues)
        if not section.present:
            continue
        pulse = _build_pulse(section, issues)
        if pulse is not None:
            pulses.append(pulse)

    bs_sec = _Section(parser, "beamsplitter", issues)
    beamsplitter = None
    if bs_sec.present:
        r = bs_sec.get_float("r", required=True)
        t = bs_sec.get_float("t", required=True)
        bs_sec.reject_leftovers(_KEYS["beamsplitter"])
        if r is not None and t is not None:
            try:
                beamsplitter = BeamSplitter(r, t)
            except ValueError as exc:
                issues.append(ValidationIssue("beamsplitter", str(exc)))

    expected = _KINDS[kind].pulse_count if kind is not None else None
    if expected is not None and len(pulses) != expected:
        issues.append(
            ValidationIssue(
                "pulses", f"{kind.value} needs sections pulse1..pulse{expected}, found {len(pulses)}"
            )
        )

    if issues:
        raise ConfigValidationError(issues)
    try:
        return ScenarioConfig(
            kind=kind,
            pulses=tuple(pulses),
            medium=medium,
            analysis_time=analysis_time,
            stokes_index=index,
            omega_grid=grid,
            beamsplitter=beamsplitter,
            omega0=omega0,
            normalization=normalization,
        )
    except ValueError as exc:
        raise ConfigValidationError([ValidationIssue("scenario", str(exc))]) from None


def dump_reference_path() -> str:
    """Filesystem path of the commented reference config shipped as data."""
    from importlib.resources import files

    return str(files("kerrstokes").joinpath("data/reference_config.ini"))
