"""Every row of the mutant table in ``bench/mutants.py`` still applies to the package.

The kill matrix in ``MUTANTS.json`` is only as good as its table: a row
whose old text no longer occurs exactly once in its module cannot be
applied, and the script stops on it.  Loading the script by path keeps this
check in the unit tests, without running ``verify`` on any mutant.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kerrstokes"


def _mutants():
    spec = importlib.util.spec_from_file_location("bench_mutants", ROOT / "bench" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _mutants()


@pytest.mark.parametrize("module, old, new, label", MUTANTS.MUTANTS,
                         ids=[row[3] for row in MUTANTS.MUTANTS])
def test_old_text_occurs_once(module, old, new, label):
    assert (PACKAGE / module).read_text(encoding="utf-8").count(old) == 1, label
    assert new != old, label


def test_mutate_edits_a_copy_once_and_refuses_a_missing_text(tmp_path):
    module, old, new, _ = MUTANTS.MUTANTS[0]
    original = (PACKAGE / module).read_text(encoding="utf-8")
    (tmp_path / module).write_text(original, encoding="utf-8")
    MUTANTS.mutate(tmp_path, module, old, new)
    assert (tmp_path / module).read_text(encoding="utf-8") == original.replace(old, new)
    with pytest.raises(ValueError, match="occurs 0 times"):
        MUTANTS.mutate(tmp_path, module, old, new)


def test_committed_matrix_lists_the_table():
    report = json.loads((ROOT / "MUTANTS.json").read_text(encoding="ascii"))
    rows = [(r["file"], r["old"], r["new"], r["label"]) for r in report["mutants"]]
    assert rows == [tuple(row) for row in MUTANTS.MUTANTS]
    assert report["killed"] + report["survived"] + report["error"] == len(rows)
