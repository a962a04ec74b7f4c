"""Command-line interface.

Four subcommands::

    kerrstokes run    --config FILE [--out PATH] [--format csv|json]
                      [--grid START:STOP:COUNT] [--optimize-at OMEGA0]
    kerrstokes figure --figure-id N [--out DIR]
    kerrstokes verify [--out PATH]
    kerrstokes reference-config

Exit codes: 0 success, 1 config or command-line parse error, 2 validation /
contract error, 3 I/O error, 4 verification failure.  Errors are emitted as
one JSON object on stderr (``{"error": {"code": ..., "issues": [...]}}``),
a command-line usage error too; regular results go to stdout as JSON.  Each
step of a command names the field it reports on, and one table maps what it
raises to a code, first match first: a ConfigValidationError is exit 2 with
its own issues' fields, a ConfigParseError exit 1, any other ValueError (a
ScenarioContractError, or a path the OS rejects as a value, such as one with
an embedded NUL) exit 2, and an OSError exit 3.

Spectrum files are written chunk by chunk: a CSV field is ``"%.17g" % x``
under the header ``omega,s_value,s_star``, and a JSON spectrum item is
``repr(x)``, which is what ``json.dump(document, sort_keys=True, indent=1)``
writes for a finite float.  The private ``_floattext`` module makes those
bytes with numpy, a chunk at a time: correctly rounded digits from a
double-double scaling, and repr's shortest digits from the gap to the
neighbouring doubles.  It hands every float it cannot decide with margin
(a rounding tie, a gap edge, |x| outside [1e-280, 1e280]) to CPython's
own formatter.  Reruns are byte-identical, and ``tests/golden_digests.json``
pins the bytes of every figure CSV and of ``run`` on each example config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .config_io import dump_reference_path, load_config
from .errors import ConfigParseError, ConfigValidationError
from .figures import figure_preset
from .scenario import OmegaGrid, run
from .verify import run_checks

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = 1


def _emit_error(code: str, exit_code: int, issues) -> int:
    payload = {
        "error": {
            "code": code,
            "issues": [{"field": f, "message": m} for f, m in issues],
        }
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


class _Exit(Exception):
    """A failed step: the arguments of :func:`_emit_error`, which only
    :func:`main` calls."""


@contextlib.contextmanager
def _reported_on(field: str):
    """Turn what the step in the block raises into an :class:`_Exit` on
    ``field``, by the module docstring's table; the three error classes are
    ValueErrors, so their clauses come first."""
    try:
        yield
    except ConfigValidationError as exc:
        raise _Exit("validation", EXIT_VALIDATION, [(i.field, i.message) for i in exc.issues])
    except ConfigParseError as exc:
        raise _Exit("parse", EXIT_PARSE, [(field, str(exc))])
    except ValueError as exc:
        raise _Exit("validation", EXIT_VALIDATION, [(field, str(exc))])
    except OSError as exc:
        raise _Exit("io", EXIT_IO, [(field, str(exc))])


def _fields(record, *finite):
    """A result dataclass as a JSON object; the ``finite`` fields map non-finite
    values to null."""
    payload = dataclasses.asdict(record)
    for name in finite:
        payload[name] = payload[name] if math.isfinite(payload[name]) else None
    return payload


def _run_payload(result, **extra):
    """The JSON object of one run: the fields that the document written by
    ``--format json`` and the stdout bundle share, plus ``extra`` ones."""
    optimum = result.optimum
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": result.config.kind.value,
        "stokes_index": result.config.stokes_index.value,
        "summary": _fields(result.summary, "degree_of_polarization"),
        "optimum": None if optimum is None else _fields(
            optimum, "delta_phi_opt", "delta_phi_numeric"
        ),
        "reference_intensity": result.spectrum.reference_intensity,
        **extra,
    }


# Grid points converted to text per write: each chunk is one large write, and
# only one chunk's text and numpy temporaries (a few MB) are alive at a time.
_CHUNK = 1 << 14
# json.dumps(..., indent=1) places a spectrum column's items at depth 3.
_JSON_ITEM_SEP = b",\n   "
# A string no other field of the document can hold: it marks where a column goes.
_COLUMN_SLOT = "\x00column"


def _write_spectrum_csv(path: Path, series) -> None:
    from . import _floattext  # here, so that importing the CLI does not load it

    columns = (series.omega, series.values, series.normalized)
    with open(path, "wb") as handle:
        handle.write(b"omega,s_value,s_star\n")
        for start in range(0, series.omega.size, _CHUNK):
            chunk = [column[start : start + _CHUNK] for column in columns]
            handle.write(_floattext.rows(chunk, "%.17g", (b",", b",", b"\n")))


def _write_spectrum_json(path: Path, document: dict, series) -> None:
    """Write ``json.dump({**document, "spectrum": columns}, sort_keys=True,
    indent=1)`` and a newline, column by column.

    ``json.dumps`` writes the small document with a placeholder per column;
    each column is spliced in, in sorted-key order, as its floats'
    ``float.__repr__`` joined the way json's indenting encoder joins list
    items.  That encoder formats a finite float with ``float.__repr__`` too,
    and ``spectrum()`` rejects non-finite values, so the bytes are json's.
    """
    from . import _floattext

    columns = {"omega": series.omega, "s_star": series.normalized, "s_value": series.values}
    skeleton = json.dumps(
        {**document, "spectrum": dict.fromkeys(columns, _COLUMN_SLOT)}, sort_keys=True, indent=1
    )
    head, *tails = skeleton.split(json.dumps(_COLUMN_SLOT))
    with open(path, "wb") as handle:
        handle.write(head.encode("ascii"))
        for name, tail in zip(sorted(columns), tails):
            separator = b"[\n   "
            column = columns[name]
            for start in range(0, column.size, _CHUNK):
                handle.write(separator)
                text = _floattext.rows((column[start : start + _CHUNK],), "repr", (_JSON_ITEM_SEP,))
                handle.write(text[: -len(_JSON_ITEM_SEP)])
                separator = _JSON_ITEM_SEP
            handle.write(b"\n  ]")
            handle.write(tail.encode("ascii"))
        handle.write(b"\n")


def _parse_grid_flag(text: str) -> OmegaGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigParseError(f"--grid expects START:STOP:COUNT, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigParseError(f"--grid expects numbers START:STOP:COUNT, got {text!r}") from None
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigParseError(f"--grid COUNT must be an integer, got {text!r}") from None
    return OmegaGrid(start, stop, count)


def cmd_run(args) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # warnings are reported structurally below
        with _reported_on("config"):
            config = load_config(args.config)
        if args.grid is not None:
            with _reported_on("grid"):
                config = dataclasses.replace(config, omega_grid=_parse_grid_flag(args.grid))
        if args.optimize_at is not None:
            with _reported_on("scenario.omega0"):
                config = dataclasses.replace(config, omega0=args.optimize_at)
        with _reported_on("scenario"):
            result = run(config)

    out = Path(args.out) if args.out else Path(f"spectrum.{args.format}")
    series = result.spectrum
    with _reported_on("out"):
        if args.format == "csv":
            _write_spectrum_csv(out, series)
        else:
            _write_spectrum_json(out, _run_payload(result), series)

    bundle = _run_payload(
        result,
        points=int(series.omega.size),
        out=str(out),
        warnings=[{"field": w.field, "message": w.message} for w in result.warnings],
    )
    print(json.dumps(bundle, sort_keys=True))
    return EXIT_OK


def cmd_figure(args) -> int:
    out_dir = Path(args.out)
    files = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the presets knowingly leave the weak-coupling regime
        with _reported_on("figure-id"):
            preset = figure_preset(args.figure_id)
        with _reported_on("out"):
            out_dir.mkdir(parents=True, exist_ok=True)
            for label, config in zip(preset.labels, preset.configs):
                result = run(config)
                path = out_dir / f"fig{preset.figure_id}_{label}.csv"
                _write_spectrum_csv(path, result.spectrum)
                files.append(path.name)
    print(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "figure_id": preset.figure_id,
                "description": preset.description,
                "files": files,
                "points": preset.configs[0].omega_grid.count,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    with _reported_on("inject-tau-mismatch"):
        report = run_checks(tau_r_mismatch=args.inject_tau_mismatch)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "passed": report.passed,
        "check_count": len(report.checks),
        "failed": [c.name for c in report.checks if not c.passed],
        "optimizer_flags": list(report.optimizer_flags),
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "checks": [
            {**_fields(c), "elapsed_seconds": round(c.elapsed_seconds, 6)} for c in report.checks
        ],
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if args.out:
        with _reported_on("out"), open(args.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _argv_error(message: str):
    """``ArgumentParser.error`` of every parser: a usage error leaves parsing
    as a ConfigParseError, which :func:`main` reports as a JSON parse error
    on ``argv``."""
    raise ConfigParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrstokes",
        description=(
            "Average Stokes parameters and quantum-fluctuation spectra of "
            "ultrashort pulses in relaxing Kerr media"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one scenario config")
    p_run.add_argument("--config", required=True, help="INI scenario file")
    p_run.add_argument("--out", help="output path (default spectrum.<format>)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--grid", help="override the frequency grid, START:STOP:COUNT")
    p_run.add_argument(
        "--optimize-at",
        type=float,
        metavar="OMEGA0",
        help="optimize the phase offset at this reduced frequency",
    )
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figure", help="write the preset curves of one reference figure")
    p_fig.add_argument("--figure-id", type=int, required=True)
    p_fig.add_argument("--out", default=".", help="output directory (default .)")
    p_fig.set_defaults(func=cmd_figure)

    p_ver = sub.add_parser("verify", help="run the numerical self-check suite")
    p_ver.add_argument("--out", help="write the JSON report here instead of stdout")
    p_ver.add_argument(
        "--inject-tau-mismatch", type=float, default=1.0, help=argparse.SUPPRESS
    )
    p_ver.set_defaults(func=cmd_verify)

    p_ref = sub.add_parser(
        "reference-config", help="print the annotated example config (pipe to a file to start)"
    )
    p_ref.set_defaults(
        func=lambda args: (print(Path(dump_reference_path()).read_text(), end=""), EXIT_OK)[1]
    )
    for each in (parser, p_run, p_fig, p_ver, p_ref):
        each.error = _argv_error
    return parser


def main(argv=None) -> int:
    try:
        with _reported_on("argv"):
            args = build_parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        return _emit_error(*exc.args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
