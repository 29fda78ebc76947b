"""The committed mutant catalogue, `mutants/run.py`, still applies to the
tree: every mutant's old text occurs exactly once in its file, and every
test meant to kill it is still defined. Running the mutants is left to the
runner (`python mutants/run.py`); this only keeps the catalogue from
rotting silently."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_catalogue():
    spec = importlib.util.spec_from_file_location("mutant_catalogue", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_catalogue()


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once_and_its_tests_exist(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, *scopes, function = test.split("[")[0].split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"def {function}(" in source, test
        assert all(f"class {scope}" in source for scope in scopes), test
