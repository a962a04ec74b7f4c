"""The package statements that the Tier-1 suite never runs.

    python3 bench/unrun.py                  # this tree
    python3 bench/unrun.py --tree ../old    # another checkout

Runs the tree's Tier-1 suite in this process, with acceptance criterion 07b
deselected (it is red on purpose), under a ``sys.settrace`` line counter that
watches only the files of ``src/kerrstokes``.  A statement is every ``ast``
statement of those files except docstrings; it counts as run when a line
event hits its first line, or the line of one of its decorators.  Prints one
``file:line  source`` row per statement never run, then their count.  Tests
that start a subprocess run their code outside the counter, so what only a
subprocess runs is listed too.  Uses only the standard library and pytest.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path

DESELECTED = "tests/test_acceptance.py::test_criterion_07b_optimized_at_unit_frequency_argmin"


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """First line of each statement of ``path`` -> the lines that count as
    running it (its first line and its decorators' lines)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {  # a docstring runs no code
        id(body[0])
        for node in ast.walk(tree)
        if isinstance(body := getattr(node, "body", None), list)
        and body
        and _is_docstring(body[0])
    }
    return {
        node.lineno: (node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ())))
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
    }


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parent.parent))
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    package = tree / "src" / "kerrstokes"
    files = {str(p): p for p in sorted(package.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def watch(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    import pytest  # before the package: pytest imports nothing of it

    sys.path.insert(0, str(tree / "src"))
    threading.settrace(watch)
    sys.settrace(watch)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", DESELECTED, str(tree / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"pytest exited with {code!r}; no count", file=sys.stderr)
        return 1

    never = []
    for name, path in files.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, hits in sorted(statements(path).items()):
            if not hit[name].intersection(hits):
                never.append(f"{path.relative_to(tree)}:{first}  {lines[first - 1].strip()}")
    print("\n".join(never))
    print(f"{len(never)} statements never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
