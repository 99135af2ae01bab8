"""Count code lines: non-blank, non-comment, non-docstring.

Every code-line figure quoted in ROADMAP.md and CHANGES.md is counted
by this rule::

    python tools/code_lines.py src/repro/harness
    python tools/code_lines.py src tools/ab_e2e.py

Each argument is a ``.py`` file or a directory searched recursively for
them.  It prints one line per file (its code lines, then its path) and
a closing total.  A line counts when it holds a token of the program
other than a comment; the lines of a module, class or function
docstring do not count.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Iterator, List, Set

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def python_files(paths: List[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths``, in sorted order per directory."""
    for path in paths:
        if not os.path.isdir(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv: List[str]) -> int:
    """Print per-file and total code lines of the paths in ``argv``."""
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
