"""The functions that kbench's tracer wraps exist and are distinct objects.

``kbench/tracing.py`` rebinds every module attribute that holds a listed
function, one listed name after the other.  A listed name that no longer
resolves breaks ``--trace 1``; two listed names bound to one object get
that object wrapped twice and double its counts.  Loading the tracer by
path keeps this check in the unit tests, without importing kbench as a
package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "kbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("kbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_distinct_functions():
    tracing = _tracing()
    listed = list(tracing.SPANS) + [("spectra", name) for name in tracing.KERNELS]
    objects = {}
    for module, name in listed:
        target = getattr(importlib.import_module(f"kerrstokes.{module}"), name)
        assert callable(target), f"kerrstokes.{module}.{name}"
        objects.setdefault(id(target), []).append(f"{module}.{name}")
    shared = [names for names in objects.values() if len(names) > 1]
    assert not shared, f"listed names bound to one object: {shared}"
    assert len(objects) == len(listed)
