"""Shared exception types, structured validation records and the one
finite-number check of the package."""

from __future__ import annotations

import math
from dataclasses import dataclass


def _finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float.  A bool is not a number,
    although Python makes it an int: ``True`` is refused wherever this is
    checked."""
    return isinstance(value, (int, float)) and type(value) is not bool and math.isfinite(value)


class ApproximationWarning(UserWarning):
    """Parameters left the weak-nonlinearity regime the model is built for.

    The closed-form results rely on per-photon phase shifts being small
    (gamma, gamma_x << 1); results are still computed, but their accuracy
    degrades once gamma exceeds roughly 0.1.
    """


class ScenarioContractError(ValueError):
    """An operation was called with pulses that violate its physical contract.

    Examples: a scenario that requires a coherent pulse received one with
    nonzero Kerr coupling, or a beam-splitter optimization was requested
    outside the parameter regime where its closed form is defined.
    """


class ConfigParseError(ValueError):
    """Config text could not be read (bad syntax or a non-numeric value)."""


@dataclass(frozen=True)
class ValidationIssue:
    """One semantic problem found while validating a scenario config.

    ``field`` uses dotted paths such as ``"beamsplitter.r"`` or
    ``"pulse1.gamma"`` so callers (and the CLI error JSON) can point at the
    offending entry.
    """

    field: str
    message: str


class ConfigValidationError(ValueError):
    """A scenario config is structurally complete but semantically invalid.

    Carries the full list of :class:`ValidationIssue` records so every
    problem is reported at once rather than one per run attempt.
    """

    def __init__(self, issues: list[ValidationIssue] | tuple[ValidationIssue, ...]):
        self.issues: tuple[ValidationIssue, ...] = tuple(issues)
        lines = "; ".join(f"{i.field}: {i.message}" for i in self.issues)
        super().__init__(f"invalid scenario config ({lines})")
