"""tools/mutants.py's catalogue, checked without running a mutant."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_its_mutant_compiles(mutant):
    """A refactor that moves a fast path must move its mutant too."""
    source = (_ROOT / mutant.path).read_text()
    assert source.count(mutant.snippet) == 1
    mutated = mutants.apply(source, mutant)
    assert mutated != source
    compile(mutated, mutant.path, "exec")  # a mutant that cannot import is no check


def test_every_named_test_exists():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    named = sorted({test for m in mutants.MUTANTS for test in m.tests})
    found = mutants.collected(_ROOT, named)
    for test in named:
        assert any(f == test or f.startswith(f"{test}[") for f in found), test
