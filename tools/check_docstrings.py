"""Docstring-coverage gate for the public surface.

Walks, with nothing but the standard library's ``ast``:

* every symbol exported through ``repro.__all__`` — resolved to the
  module that defines it, then to its class/function definition, and
* every module, class, public function and public method of the
  ``repro.sync`` package (the subsystem this gate shipped with), the
  ``repro.ablate`` package, and the ``repro.mem`` and ``repro.hw``
  packages (caches, address space, hardware coherence and sync).

A definition *passes* when it (or, for ``__init__``, its class) has a
docstring.  Names starting with ``_`` are private and exempt, as are
trivial delegating ``__repr__``/``__eq__``-style dunders; ``__init__``
is checked through its class.  Failures print as
``path:line: <kind> <qualname>`` and the process exits 1 — wire-able
as a CI job with no third-party dependency (interrogate is not in the
image; this is the small-AST-check alternative the repo chose).

Run from the repo root::

    PYTHONPATH=src python tools/check_docstrings.py [--verbose]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Dunders whose meaning is fixed by the data model: a docstring on
#: ``__len__`` restates the protocol, so they are exempt.
EXEMPT_DUNDERS = frozenset({
    "__repr__", "__str__", "__eq__", "__ne__", "__hash__", "__len__",
    "__iter__", "__next__", "__contains__", "__getitem__",
    "__setitem__", "__enter__", "__exit__", "__bool__", "__lt__",
    "__le__", "__gt__", "__ge__", "__init__", "__post_init__",
    "__init_subclass__",
})


def iter_py_files(root: str) -> Iterator[str]:
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC_ROOT)
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Definition:
    """One checkable definition: a module, class, or function."""

    def __init__(self, kind: str, qualname: str, path: str, line: int,
                 has_doc: bool) -> None:
        self.kind = kind
        self.qualname = qualname
        self.path = path
        self.line = line
        self.has_doc = has_doc

    def location(self) -> str:
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: {self.kind} {self.qualname}"


def collect_definitions(path: str) -> List[Definition]:
    """Every public definition in one file, with docstring status."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    mod = module_name(path)
    defs = [Definition("module", mod, path, 1,
                       ast.get_docstring(tree) is not None)]

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name.startswith("_"):
                    continue
                qual = f"{prefix}{child.name}"
                defs.append(Definition(
                    "class", qual, path, child.lineno,
                    ast.get_docstring(child) is not None))
                walk(child, f"{qual}.")
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                name = child.name
                if name in EXEMPT_DUNDERS:
                    continue
                if name.startswith("_") and not name.endswith("__"):
                    continue
                defs.append(Definition(
                    "def", f"{prefix}{name}", path, child.lineno,
                    ast.get_docstring(child) is not None))
    walk(tree, f"{mod}.")
    return defs


def public_surface() -> Tuple[Dict[str, Tuple[str, int]], List[str]]:
    """(__all__ symbol -> defining location, gated package files).

    Imports ``repro`` to read ``__all__`` and resolve each export to
    the file and line of its definition; the ``repro.sync``,
    ``repro.ablate``, ``repro.mem`` and ``repro.hw`` files come from
    the package paths so *new* undocumented code cannot hide by not
    being imported.
    """
    import importlib
    import inspect

    repro = importlib.import_module("repro")
    locations: Dict[str, Tuple[str, int]] = {}
    for symbol in repro.__all__:
        obj = getattr(repro, symbol, None)
        try:
            path = inspect.getsourcefile(obj)
            _lines, line = inspect.getsourcelines(obj)
        except TypeError:
            continue        # data exports (DEFAULT_SYNC, tuples, ...)
        if not path:
            continue
        path = os.path.abspath(path)
        # Decorated exports (e.g. contextmanagers) can resolve to the
        # decorator's home in the stdlib; only our tree is gated.
        if not path.startswith(SRC_ROOT + os.sep):
            continue
        locations[symbol] = (path, line)

    package_files: List[str] = []
    for package in ("sync", "ablate", "mem", "hw"):
        root = os.path.join(SRC_ROOT, "repro", package)
        package_files.extend(iter_py_files(root))
    return locations, package_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="docstring-coverage gate for repro.__all__, "
                    "repro.sync, repro.ablate, repro.mem and repro.hw")
    parser.add_argument("--verbose", action="store_true",
                        help="list every definition checked")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_ROOT)
    exports, package_files = public_surface()

    # Files under the gate: every file defining an __all__ export,
    # plus the whole gated packages.
    files = sorted({path for path, _line in exports.values()}
                   | set(package_files))

    checked: List[Definition] = []
    for path in files:
        checked.extend(collect_definitions(path))

    missing = [d for d in checked if not d.has_doc]
    if args.verbose:
        for definition in checked:
            mark = "ok  " if definition.has_doc else "MISS"
            print(f"{mark} {definition.location()}")

    covered = len(checked) - len(missing)
    print(f"docstring coverage: {covered}/{len(checked)} public "
          f"definitions across {len(files)} files "
          f"({len(exports)} __all__ exports + gated packages)")
    if missing:
        print()
        for definition in missing:
            print(f"  {definition.location()}")
        print(f"\n{len(missing)} public definition(s) lack docstrings")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
