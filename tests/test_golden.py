"""Byte-level regression of the CLI outputs against committed SHA-256 digests.

Covers every figure CSV (ids 1-6 and 8-12), ``kerrstokes run`` on each
example config in ``configs/``, written both as CSV and as the JSON
document, and the ``kerrstokes verify`` report.  All four configs set
``omega0``, so the run digests also pin the phase optimum (closed form and
scan) reported in the JSON document.  The verify digest pins every check's
name, verdict, tolerance and detail string and the optimizer flags; only
the wall-clock ``elapsed_seconds`` of the run and of each check are left
out.  A closed-vs-scan sweep shows its random draws only through its
verdict, so the pulses that ``verify._draw_pulse`` returns during that run
are pinned by a second digest.

A changed digest means some output moved by at least one bit.  Such a
change has to be deliberate and named in CHANGES.md; the digests are then
rewritten with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from kerrstokes import cli, optimize, verify
from kerrstokes.figures import FIGURE_IDS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
CONFIGS = sorted((HERE.parent / "configs").glob("*.ini"))
DATA_FIGURES = tuple(fid for fid in FIGURE_IDS if fid != 7)  # 7 is a schematic


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _main(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, f"kerrstokes {' '.join(map(str, argv))} exited with {code}"


def figure_digests(figure_id: int, out_dir: Path) -> dict[str, str]:
    """Digest of every CSV that ``kerrstokes figure`` writes for one id."""
    target = out_dir / f"fig{figure_id}"
    _main("figure", "--figure-id", figure_id, "--out", target)
    return {f"figure/{p.name}": _sha256(p) for p in sorted(target.glob("*.csv"))}


def run_digests(config: Path, out_dir: Path) -> dict[str, str]:
    """Digests of ``kerrstokes run`` on one config, as CSV and as JSON."""
    digests = {}
    for fmt in ("csv", "json"):
        out = out_dir / f"{config.stem}.{fmt}"
        _main("run", "--config", config, "--format", fmt, "--out", out)
        digests[f"run/{config.stem}.{fmt}"] = _sha256(out)
    return digests


def verify_digests(out_dir: Path) -> dict[str, str]:
    """Digests of one ``kerrstokes verify`` run: its report without any
    ``elapsed_seconds``, the repr of every pulse it draws and the repr of
    every phase optimum it computes."""
    drawn, optima = [], []

    def recorder(function, into):
        def recording(*args, **kwargs):
            into.append(function(*args, **kwargs))
            return into[-1]

        return recording

    out = out_dir / "verify.json"
    with (
        mock.patch.object(verify, "_draw_pulse", recorder(verify._draw_pulse, drawn)),
        mock.patch.object(optimize, "_optimize", recorder(optimize._optimize, optima)),
    ):
        _main("verify", "--out", out)
    report = json.loads(out.read_text(encoding="ascii"))
    del report["elapsed_seconds"]
    for check in report["checks"]:
        del check["elapsed_seconds"]
    texts = {
        "verify/report.json": json.dumps(report, sort_keys=True, indent=1) + "\n",
        "verify/draws.txt": "".join(f"{pulse!r}\n" for pulse in drawn),
        "verify/optima.txt": "".join(f"{optimum!r}\n" for optimum in optima),
    }
    return {k: hashlib.sha256(v.encode("ascii")).hexdigest() for k, v in texts.items()}


def all_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for fid in DATA_FIGURES:
        digests.update(figure_digests(fid, out_dir))
    for config in CONFIGS:
        digests.update(run_digests(config, out_dir))
    digests.update(verify_digests(out_dir))
    return digests


@pytest.fixture(scope="module")
def committed():
    return json.loads(DIGESTS.read_text(encoding="ascii"))


def test_every_output_is_pinned(committed):
    names = {f"run/{c.stem}.{fmt}" for c in CONFIGS for fmt in ("csv", "json")}
    assert len(CONFIGS) == 4
    verified = {"verify/report.json", "verify/draws.txt", "verify/optima.txt"}
    assert names | verified <= committed.keys()
    assert {k.split("_")[0] for k in committed if k.startswith("figure/")} == {
        f"figure/fig{fid}" for fid in DATA_FIGURES
    }


@pytest.mark.parametrize("figure_id", DATA_FIGURES)
def test_figure_csvs_match_digests(figure_id, committed, tmp_path):
    got = figure_digests(figure_id, tmp_path)
    want = {k: v for k, v in committed.items() if k.startswith(f"figure/fig{figure_id}_")}
    assert got == want


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_run_outputs_match_digests(config, committed, tmp_path):
    got = run_digests(config, tmp_path)
    assert got == {k: committed[k] for k in got}


def test_verify_report_matches_digests(committed, tmp_path):
    got = verify_digests(tmp_path)
    assert got == {k: committed[k] for k in got}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = all_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
