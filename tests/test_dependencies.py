"""The runtime stays numpy-only: every module of the package imports the
standard library, numpy and its own modules, nothing else (scipy and mpmath
are test-only cross-checks)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlsphere"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(path):
    """(line, module) of every absolute import in a source file, including
    constant names handed to importlib.import_module or __import__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            name = node.args[0]
            if isinstance(name, ast.Constant) and not name.value.startswith("."):
                yield node.lineno, name.value


def test_the_package_has_modules():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"__init__.py", "sht.py", "cli.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    outside = [f"{path.name}:{line} imports {name}" for line, name in imported_modules(path)
               if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_the_scan_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy.fft\nfrom . import sht\nfrom scipy import fft\n"
                     "import importlib\nimportlib.import_module('mpmath')\n")
    names = sorted(name for _, name in imported_modules(probe))
    assert names == ["importlib", "mpmath", "numpy.fft", "scipy"]
    assert [n for n in names if n.split(".")[0] not in ALLOWED] == ["mpmath", "scipy"]
