"""Code lines of each module of a package, counted with ``tokenize``.

    python3 bench/codelines.py                 # src/kerrstokes of this tree
    python3 bench/codelines.py ../old/src/kerrstokes

A code line is a physical line that holds a token of a logical line, other
than a docstring (a logical line that is one string): comments, blank lines
and docstrings are not counted.  Prints one line per module and the total.
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


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "src" / "kerrstokes"
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
