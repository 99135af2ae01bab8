"""The docstring-coverage gate itself: detection and repo status."""

import os
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "check_docstrings.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
check_docstrings = __import__("check_docstrings")


def _write_module(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return str(path)


def _missing(tmp_path, source):
    path = _write_module(tmp_path, source)
    defs = check_docstrings.collect_definitions(path)
    return sorted(d.qualname.rsplit(".", 1)[-1]
                  for d in defs if not d.has_doc)


def test_detects_undocumented_definitions(tmp_path):
    missing = _missing(tmp_path, """
        def documented():
            \"\"\"Has one.\"\"\"

        def naked():
            pass

        class Naked:
            def method(self):
                pass
    """)
    # The module itself has no docstring either.
    assert missing == ["Naked", "method", "mod", "naked"]


def test_private_names_and_exempt_dunders_skip(tmp_path):
    missing = _missing(tmp_path, """
        \"\"\"Module doc.\"\"\"

        def _helper():
            pass

        class Thing:
            \"\"\"Class doc.\"\"\"

            def __init__(self):
                pass

            def __repr__(self):
                pass

            def _internal(self):
                pass
    """)
    assert missing == []


def test_dataclass_post_init_exempt():
    assert "__post_init__" in check_docstrings.EXEMPT_DUNDERS
    assert "__init__" in check_docstrings.EXEMPT_DUNDERS


def test_public_surface_resolves_exports():
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        exports, package_files = check_docstrings.public_surface()
    finally:
        sys.path.pop(0)
    # Classes, functions, and the gated packages must all be covered.
    assert "SyncPolicy" in exports
    assert "make_machine" in exports
    assert any(p.endswith("__init__.py") for p in package_files)
    for gated in ("sync", "ablate", "mem", "hw"):
        assert any(os.sep + os.path.join("repro", gated, "") in p
                   for p in package_files), gated
    src_root = check_docstrings.SRC_ROOT + os.sep
    assert all(path.startswith(src_root)
               for path, _line in exports.values())


def test_repo_passes_its_own_gate():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, TOOL], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
