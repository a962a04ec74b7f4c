"""INI-style config files for scenario runs.

Layout (see ``data/reference_config.ini`` for a fully commented example)::

    [scenario]                 kind, stokes_index, analysis_time,
                               omega0, normalization
    [medium]                   tau_r
    [grid]                     start, stop, count
    [pulse1] .. [pulse3]       n0, envelope, tau_p, gamma | beta + length,
                               gamma_x | beta_x (+ length), phi_lin
    [beamsplitter]             r, t

A scenario of kind k needs exactly the sections pulse1..pulseN, N being
the pulse count of k.  A key that is left out takes the default of the
dataclass it feeds (:class:`~kerrstokes.scenario.ScenarioConfig`,
:class:`~kerrstokes.kernel.RelaxationKernel`,
:class:`~kerrstokes.scenario.OmegaGrid`,
:class:`~kerrstokes.pulse.Envelope` or :class:`~kerrstokes.pulse.PulseSpec`);
only ``kind``, ``n0``, ``r`` and ``t`` are required.

The Kerr couplings can be given directly (``gamma``) or as a nonlinearity
coefficient times the propagation length (``beta`` and ``length``), which
are folded into ``gamma = beta * length`` while parsing; giving both forms
for one pulse, or a ``length`` with no beta, is rejected.  So is a
``tau_p`` on a pulse whose envelope is constant, given or by default: a
constant envelope has no duration, and the value would be dropped.
Unknown sections or keys are rejected too, ``[DEFAULT]`` among them, so
typos do not silently fall back to defaults.

Error classes: unreadable text or non-numeric values raise
:class:`~kerrstokes.errors.ConfigParseError`, naming the first malformed
value in file order; structurally sound but invalid content raises
:class:`~kerrstokes.errors.ConfigValidationError` with one
:class:`~kerrstokes.errors.ValidationIssue` per problem.
"""

from __future__ import annotations

import configparser

from .errors import ConfigParseError, ConfigValidationError, ValidationIssue
from .kernel import RelaxationKernel
from .pulse import Envelope, EnvelopeShape, PulseSpec
from .scenario import _KINDS, BeamSplitter, OmegaGrid, ScenarioConfig, ScenarioKind
from .spectra import StokesIndex

__all__ = ["load_config", "dump_reference_path"]

_PULSE_KEYS = {
    "n0": float,
    "envelope": EnvelopeShape,
    "tau_p": float,
    "gamma": float,
    "beta": float,
    "gamma_x": float,
    "beta_x": float,
    "length": float,
    "phi_lin": float,
}

# section -> key -> parser: the only list of allowed sections and keys.  A
# parser is float or int (a malformed value is a parse error) or an enum
# class (an unknown value is a validation issue that lists the choices).
_KEYS = {
    "scenario": {
        "kind": ScenarioKind,
        "stokes_index": StokesIndex,
        "analysis_time": float,
        "omega0": float,
        "normalization": float,
    },
    "medium": {"tau_r": float},
    "grid": {"start": float, "stop": float, "count": int},
    "pulse1": _PULSE_KEYS,
    "pulse2": _PULSE_KEYS,
    "pulse3": _PULSE_KEYS,
    "beamsplitter": {"r": float, "t": float},
}

# Keys without a default; each name occurs in one kind of section only.
_REQUIRED = ("kind", "n0", "r", "t")


def load_config(path) -> ScenarioConfig:
    """Parse an INI scenario file into a ScenarioConfig.

    Raises OSError if unreadable, ConfigParseError on malformed text or
    values, ConfigValidationError on semantic problems.  The returned
    config still has to pass :func:`kerrstokes.scenario.validate` (the CLI
    runs it; library users should too).
    """
    # No file can name a section with a newline, so [DEFAULT] is an ordinary
    # (unknown) section whose keys do not leak into the others.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section="\n"
    )
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigParseError(f"bad config syntax: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"config is not UTF-8 text: {exc}") from None

    issues: list[ValidationIssue] = []

    def _read(section):
        """The parsed values of the keys given in ``section``, or None if it
        cannot be built: a required key is missing or an enum value is bad."""
        table = _KEYS[section]
        raw = dict(parser.items(section))
        values = {}
        buildable = True
        for key, text in raw.items():
            field = f"{section}.{key}"
            parse = table.get(key)
            if parse is None:
                hint = f"unknown key (allowed: {', '.join(sorted(table))})"
                issues.append(ValidationIssue(field, hint))
                continue
            try:
                values[key] = parse(text)
            except ValueError:
                if parse in (float, int):
                    expected = "an integer" if parse is int else "a number"
                    raise ConfigParseError(f"{field}: expected {expected}, got {text!r}") from None
                choices = ", ".join(e.value for e in parse)
                issues.append(ValidationIssue(field, f"must be one of: {choices}; got {text!r}"))
                buildable = False
        for key in _REQUIRED:
            if key in table and key not in raw:
                issues.append(ValidationIssue(f"{section}.{key}", "required key is missing"))
                buildable = False
        return values if buildable else None

    def _build(cls, field, **kwargs):
        """``cls(**kwargs)``, or None with its ValueError recorded on ``field``."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            issues.append(ValidationIssue(field, str(exc)))
            return None

    def _pulse(section, keys):
        length = keys.pop("length", None)
        if length is not None and "beta" not in keys and "beta_x" not in keys:
            hint = "has no beta or beta_x to fold into"
            issues.append(ValidationIssue(f"{section}.length", hint))
        for direct, beta in (("gamma", "beta"), ("gamma_x", "beta_x")):
            if beta not in keys:
                continue
            coefficient = keys.pop(beta)
            if direct in keys:
                hint = f"give either {direct} or {beta} * length, not both"
                issues.append(ValidationIssue(f"{section}.{direct}", hint))
            elif length is None:
                hint = "needs a propagation length to fold into gamma"
                issues.append(ValidationIssue(f"{section}.{beta}", hint))
            else:
                keys[direct] = coefficient * length
        envelope = {"shape": keys.pop("envelope")} if "envelope" in keys else {}
        if "tau_p" in keys:
            envelope["tau_p"] = keys.pop("tau_p")
            if envelope.get("shape", Envelope.shape) is EnvelopeShape.CONSTANT:
                hint = "has no gaussian or sech envelope to shape"
                issues.append(ValidationIssue(f"{section}.tau_p", hint))
        keys["envelope"] = _build(Envelope, f"{section}.tau_p", **envelope)
        return _build(PulseSpec, section, **keys) if keys["envelope"] is not None else None

    allowed = ", ".join(sorted(_KEYS))
    for name in parser.sections():
        if name not in _KEYS:
            issues.append(ValidationIssue(name, f"unknown section (allowed: {allowed})"))
    read = {name: _read(name) for name in parser.sections() if name in _KEYS}

    if "scenario" not in read:
        issues.append(ValidationIssue("scenario", "required section is missing"))
    scenario = read.get("scenario") or {}
    medium = _build(RelaxationKernel, "medium.tau_r", **read.get("medium", {}))
    grid = _build(OmegaGrid, "grid", **read.get("grid", {}))
    names = [name for name in _KEYS if name.startswith("pulse") and name in read]
    pulses = tuple(_pulse(name, read[name]) for name in names if read[name] is not None)
    beamsplitter = None
    if read.get("beamsplitter") is not None:
        beamsplitter = _build(BeamSplitter, "beamsplitter", **read["beamsplitter"])

    kind = scenario.get("kind")
    if kind is not None:
        expected = [f"pulse{i}" for i in range(1, _KINDS[kind].pulse_count + 1)]
        if names != expected:
            found = ", ".join(names) or "none"
            message = f"{kind.value} needs sections pulse1..{expected[-1]}, found {found}"
            issues.append(ValidationIssue("pulses", message))

    if not issues:
        config = _build(
            ScenarioConfig, "scenario", pulses=pulses, medium=medium, omega_grid=grid,
            beamsplitter=beamsplitter, **scenario,
        )
    if issues:
        raise ConfigValidationError(issues)
    return config


def dump_reference_path() -> str:
    """Filesystem path of the commented reference config shipped as data."""
    from importlib.resources import files

    return str(files("kerrstokes").joinpath("data/reference_config.ini"))
