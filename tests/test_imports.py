"""The runtime uses only the standard library: every import in the package's
modules is package-relative or names a standard-library module. The package
modules import only the modules their layer allows, and the test modules
define each shared helper once."""
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


def _package_imports(source: str) -> set[str]:
    """Modules of the package imported, relatively or as `finalg.<module>`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("finalg.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "finalg":
                    continue
                module = module.removeprefix("finalg").lstrip(".")
            # `from . import closure` names the module in the alias
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def _read(name: str) -> str:
    return (Path(finalg.__file__).parent / name).read_text(encoding="utf-8")


def test_term_enumeration_imports_only_errors():
    # the term-enumeration reference stays independent of the engine
    assert _package_imports(_read("algebra.py")) == {"errors"}


def test_catalog_imports_only_algebra_and_errors():
    # entries are data: which suite takes one is decided in suites.py
    assert _package_imports(_read("catalog.py")) == {"algebra", "errors"}


def test_oracles_import_only_algebra_errors_and_relations():
    # the oracles recompute from the tables: never the closure engine or ranks
    assert _package_imports(_read("oracles.py")) == {"algebra", "errors", "relations"}


def test_a_package_import_is_caught():
    source = (
        "import os.path\nfrom . import closure, ranks\nfrom .errors import E\n"
        "import finalg.suites\nfrom finalg.cli import main\n"
        "from finalg import catalog\nfrom itertools import product\n"
    )
    assert _package_imports(source) == {"closure", "ranks", "errors", "suites", "cli", "catalog"}


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    """The calls under `node` of a function named `name`, bare or as an attribute."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_suites_walk_the_catalog_once():
    # each suite's function checks one entry; only `run_suite` builds the catalog
    tree = ast.parse(_read("suites.py"))
    run_suite = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "run_suite")
    assert len(_calls(tree, "build_catalog")) == len(_calls(run_suite, "build_catalog")) == 1


def _shared_helpers(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each top-level function that more than one module defines, with those
    modules; tests and pytest fixtures are not helpers."""

    def is_fixture(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return "fixture" in (getattr(target, "id", None), getattr(target, "attr", None))

    owners: dict[str, list[str]] = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("test")
                    and not any(map(is_fixture, node.decorator_list))):
                owners.setdefault(node.name, []).append(module)
    return {name: modules for name, modules in owners.items() if len(modules) > 1}


def test_no_two_test_modules_define_one_helper():
    # a helper the test modules share lives once, in references.py or conftest.py
    tests = Path(__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in tests.glob("*.py")}
    assert "references.py" in sources
    assert _shared_helpers(sources) == {}


def test_a_copied_helper_is_caught():
    module = (
        "import pytest\n"
        "def by_name(name):\n    pass\n"
        "def test_x():\n    pass\n"
        "@pytest.fixture\ndef runs():\n    return []\n"
        "@pytest.fixture(autouse=True)\ndef cold():\n    pass\n"
    )
    sources = {"a.py": module, "b.py": module}
    assert _shared_helpers(sources) == {"by_name": ["a.py", "b.py"]}
