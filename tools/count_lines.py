"""Count the code lines of a Python package.

A line counts when it is not blank, not a comment and not part of a
docstring.  Prints the count of each ``.py`` file under the directory,
or of the one file given, then the total:

    python tools/count_lines.py src/gmmlor
    python tools/count_lines.py src/gmmlor/cli.py

A path that is neither a directory nor a ``.py`` file exits 2.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, comments or docstrings."""
    skip = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip
        and line.strip()
        and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: count_lines.py PACKAGE_DIR_OR_PY_FILE", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.is_dir():
        paths = sorted(root.rglob("*.py"))
    elif root.is_file() and root.suffix == ".py":
        paths, root = [root], root.parent
    else:
        print(f"count_lines.py: {root} is neither a directory nor a .py "
              "file", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = count_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
