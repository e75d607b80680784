"""The mutation census stays current: every mutant names one line."""

from pathlib import Path

import pytest

from mutants import MUTANTS, apply

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("index", range(len(MUTANTS)))
def test_mutant_line_occurs_once(index):
    mutant = MUTANTS[index]
    source = (SRC / mutant.path).read_text()
    mutated = apply(mutant, source)
    assert mutated != source
    compile(mutated, mutant.path, "exec")
    assert (SRC.parent / mutant.test).is_file()
