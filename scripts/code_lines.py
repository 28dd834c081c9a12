"""Count code lines: non-blank lines outside comments and docstrings.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files;
the default is ``src/photontrack``.  Prints the count of each file and
the total.  A docstring is a string-literal statement that opens a
module, class or function body.  Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "photontrack"


def code_lines(source: str) -> int:
    lines = source.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                skip.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in code - skip if lines[n - 1].strip())


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or [str(DEFAULT)]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
