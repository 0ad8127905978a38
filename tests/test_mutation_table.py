"""The mutation sweep's table (tests/mutation_sweep.py) matches the source.

A code edit that changes a guarded line strands its row; this catches it at
once instead of as `stale` on the next hand run of the sweep.  Nothing is
mutated and no test run is started here.
"""

from pathlib import Path

import pytest

from .mutation_sweep import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "sublevel_lab"


@pytest.mark.parametrize("name, old, new, reason", MUTANTS,
                         ids=[row[3] for row in MUTANTS])
def test_row_is_current(name, old, new, reason):
    assert (SRC / name).read_text().count(old) == 1
    assert new != old
