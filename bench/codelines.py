"""Code lines of each module of a package, counted with ``tokenize``.

    python3 bench/codelines.py                 # src/kerrstokes of this tree
    python3 bench/codelines.py ../old/src/kerrstokes
    python3 bench/codelines.py OLD NEW         # two packages side by side

A code line is a physical line that holds a token of a logical line, other
than a docstring (a logical line that is one string): comments, blank lines
and docstrings are not counted.  With one package (or none), prints one line
per module and the total.  With two, prints per module the count in OLD, in
NEW and their difference, then the totals; a module missing from one side
counts 0 there.
"""

import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    lines, logical = set(), []
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type in SKIPPED:
                continue
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    lines.update(n for t in logical for n in range(t.start[0], t.end[0] + 1))
                logical = []
            else:
                logical.append(tok)
    return len(lines)


def package_counts(package: Path) -> dict[str, int]:
    return {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "src" / "kerrstokes"
    if len(sys.argv) == 3:
        old, new = (package_counts(Path(arg)) for arg in sys.argv[1:])
        print(f"{'before':>6}  {'after':>6}  {'diff':>6}  module")
        for name in sorted(old.keys() | new.keys()):
            before, after = old.get(name, 0), new.get(name, 0)
            print(f"{before:6d}  {after:6d}  {after - before:+6d}  {name}")
        before, after = sum(old.values()), sum(new.values())
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  total")
    else:
        counts = package_counts(Path(sys.argv[1]) if len(sys.argv) > 1 else default)
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total")
