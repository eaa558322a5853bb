"""The slow tier: checks that take minutes, beyond tier-1's budget.

pyproject.toml's addopts leave the tests marked slow out of a plain pytest
run; `python3 -m pytest -m slow` runs them alone.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from rlat import FiniteInRL
from rlat.fileformat import emit
from rlat.generate import build_an

ROOT = pathlib.Path(__file__).resolve().parent.parent

# A cell of build_an(254) (n = 1022, at the size cap) whose one-cell
# mutants take validate's slowest path. `python -m rlat.cli check -` took
# 76 s on the join mutant and 58 s on the fusion mutant (wall time, 2-CPU
# Linux guest, Python 3.11); each run here may take three times that.
# Each mutant is symmetric, so neither table fails commutativity.
CELL = (978, 883)
EXPECTED = {
    "join": (3 * 76, [
        "join associative: FAIL at (x_219, -x_220, -x_244)",
        "residuation: FAIL at (0_220, -x_244)",
        "fusion distributes over join: FAIL at (-x_220, 1_220, -x_244)",
    ]),
    "fusion": (3 * 58, [
        "fusion associative: FAIL at (-x_220, 1_220, -x_244)",
        "residuation: FAIL at (1_220, -x_244)",
        "fusion distributes over join: FAIL at (1_220, x_219, -x_244)",
    ]),
}


def mutant(table):
    """build_an(254) with cell CELL of table and its mirror raised by one
    id."""
    alg = build_an(254)
    x, y = CELL
    rows = [row[:] for row in getattr(alg, table)]
    assert rows[x][y] == rows[y][x] < alg.n - 1
    rows[x][y] = rows[y][x] = rows[x][y] + 1
    tables = {"join": alg.join, "fusion": alg.fusion, table: rows}
    return FiniteInRL(alg.names, alg.one, alg.neg, tables["join"],
                      tables["fusion"])


@pytest.mark.slow
@pytest.mark.parametrize("table", sorted(EXPECTED))
def test_one_cell_mutant_at_the_cap_is_rejected_in_time(table):
    bound, fails = EXPECTED[table]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "rlat.cli", "check", "-"],
                          input=emit(mutant(table)), capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=bound)
    assert proc.returncode == 1, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if "FAIL" in line] == fails
