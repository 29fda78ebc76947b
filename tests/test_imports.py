"""The runtime uses only the standard library: every import in the package's
modules is package-relative or names a standard-library module."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import finalg

SOURCES = sorted(Path(finalg.__file__).parent.glob("*.py"))


def _outside_imports(source: str) -> list[str]:
    """Modules imported by absolute name whose top-level package is not in
    the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_every_module_is_checked():
    assert {"cli.py", "closure.py", "suites.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_or_standard_library(path):
    assert _outside_imports(path.read_text(encoding="utf-8")) == []


def test_a_third_party_import_is_caught():
    source = "import os.path\nfrom . import algebra\nfrom numpy.linalg import inv\nimport hypothesis\n"
    assert _outside_imports(source) == ["numpy.linalg", "hypothesis"]
