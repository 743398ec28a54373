"""Count code lines of the sigmaevo package.

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the string that opens a
module, class or function body).  Blank lines, comment-only lines and
docstrings are left out.  Prints one line per module and the total.

    python3 tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/sigmaevo`` next to this script.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one source file."""
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "sigmaevo")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
