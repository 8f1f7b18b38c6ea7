"""Every fault of tools/fault_matrix.py finds its old text exactly once in
the current sources, as every traced name must resolve for the tracer: a
refactor that moves the text fails here instead of turning the fault into
a no-op that every check passes."""

from pathlib import Path

import pytest
from conftest import load

MATRIX = load(Path(__file__).resolve().parents[1] / "tools" / "fault_matrix.py")


@pytest.mark.parametrize("fault", MATRIX.FAULTS, ids=lambda f: f.name)
def test_every_fault_finds_its_old_text_once(fault):
    assert MATRIX.occurrences(fault) == 1, f"{fault.path}: {fault.old!r}"
