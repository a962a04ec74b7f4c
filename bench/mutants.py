"""The mutant kill matrix of ``kerrstokes verify``: which small source edits it catches.

    python3 bench/mutants.py                  # this tree: writes ./MUTANTS.json
    python3 bench/mutants.py --tree ../old    # writes ../old/MUTANTS.json

Each row of ``MUTANTS`` is one edit of a module of ``src/kerrstokes``: the
module's file name, an old text that must occur in it exactly once, the new
text and a label.  For each row the script copies the tree's ``src/`` to a
temporary directory, applies the edit there and runs ``python -m kerrstokes
verify`` with that copy first on ``PYTHONPATH``.  The exit code is the verdict:
4 means verify killed the mutant, 0 that it survived, and anything else is an
error.  The unedited copy is run first and must exit 0, or no verdict would
mean anything.  The report goes to ``MUTANTS.json`` at the tree's root; no
other file of the tree is edited.  Only the standard library is used, and the
report holds no timing, so a rerun on the same tree gives the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = {4: "killed", 0: "survived"}  # verify's exit code -> verdict; others are errors

# (module file, old text, new text, label)
MUTANTS = (
    ("spectra.py", "n2 * (phi1**2 + phix1**2)", "n2 * (phi1**2)", "W drops phix1^2"),
    ("spectra.py", "n1 * (phi2**2 + phix2**2)", "n1 * (phi2**2)", "W drops phix2^2"),
    ("pulse.py", "return self.phi - self.phix", "return self.phi + self.phix",
     "XPM sign flipped in LocalPulse.kerr()"),
    ("spectra.py", "weight2 * square(sin(psi2))", "weight2 * square(cos(psi2))",
     "bs_s2 b_g with cos(psi2) for sin(psi2)"),
    ("spectra.py", "spm = ref * trans * (n1 * phi2 - n2 * phi1)",
     "spm = ref * trans * (n2 * phi1 - n1 * phi2)", "bs_s01 spm sign flipped"),
    ("optimize.py", "_probe_closed(n3, phi, bs.r - bs.t, lor0)",
     "_probe_closed(n3, phi, bs.t - bs.r, lor0)", "bs_s2 contrast R - T swapped"),
    ("optimize.py", "if s_at_closed > s_num + AGREEMENT_TOL:",
     "if s_at_closed > s_num + 1e3:", "closed-phase-not-minimal slack raised to 1e3"),
    ("stokes.py", "delta1, delta2 = a.mu + a.mux, b.mu + b.mux",
     "delta1, delta2 = a.mu, b.mu", "XPM damping dropped from the single-port averages"),
)


def mutate(package: Path, module: str, old: str, new: str) -> None:
    """Replace ``old``, which must occur exactly once, by ``new`` in ``package/module``."""
    path = package / module
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{module}: {old!r} occurs {count} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def verify_exit(tree: Path, work: Path, edit=None) -> int:
    """Exit code of ``kerrstokes verify`` on a fresh copy of ``tree/src``, edited by ``edit``."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        mutate(src / "kerrstokes", *edit)
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "kerrstokes", "verify"],
        env={**os.environ, "PYTHONPATH": path},
        cwd=work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", default=ROOT, type=Path, help="checkout to mutate (default: this one)"
    )
    args = parser.parse_args(argv)
    if not (args.tree / "src" / "kerrstokes").is_dir():
        parser.error(f"--tree expects a directory with src/kerrstokes, got {str(args.tree)!r}")

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        baseline = verify_exit(args.tree, Path(scratch))
        if baseline != 0:
            print(f"verify exits {baseline} on the unedited tree", file=sys.stderr)
            return 1
        for module, old, new, label in MUTANTS:
            code = verify_exit(args.tree, Path(scratch), (module, old, new))
            verdict = VERDICTS.get(code, "error")
            rows.append(dict(label=label, file=module, old=old, new=new, exit=code,
                             verdict=verdict))
            print(f"{verdict:>8}  {label}", file=sys.stderr)
    tally = {v: sum(r["verdict"] == v for r in rows) for v in ("killed", "survived", "error")}
    report = {"command": "python -m kerrstokes verify", **tally, "mutants": rows}
    (args.tree / "MUTANTS.json").write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
