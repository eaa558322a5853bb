"""The public entry points check the algebras they receive, once.

Each raises ValueError on a non-member, and on nothing else; what they build
from members is a member by the paper's theorems and is not checked again.
"""

import pytest

from rlat import FiniteInRL, validate
from rlat.congruence import (congruence_from_filter, congruence_lattice,
                             filters_of_negative_cone, quotient)
from rlat.decompose import Leaf, decompose, find_atoms, reassemble, split
from rlat.generate import boolean_algebra
from rlat.gluing import GluingSpec, glue
from rlat.partition import partition
from rlat.props import (is_distributive_semilattice, is_lattice_distributive,
                        is_semilinear)


def rejected_mutants(alg):
    """Every symmetric single-cell change of join or fusion (cells x <= y)
    that validate rejects."""
    n = alg.n
    for label in ("join", "fusion"):
        base = getattr(alg, label)
        for x in range(n):
            for y in range(x, n):
                for v in range(n):
                    if v == base[x][y]:
                        continue
                    t = [row[:] for row in base]
                    t[x][y] = t[y][x] = v
                    tables = {"join": alg.join, "fusion": alg.fusion,
                              label: t}
                    m = FiniteInRL(alg.names, alg.one, alg.neg,
                                   tables["join"], tables["fusion"])
                    if not validate(m).ok:
                        yield m


def entry_points(a1):
    """One call per public entry point, each taking the algebra to check."""
    two = boolean_algebra(1)
    b = two.element("0")
    atom = find_atoms(a1)[0]
    f = filters_of_negative_cone(a1)[0]
    theta = congruence_lattice(a1).congruences[0]
    least = a1.element("bot")   # the monoidal least element

    def glue_below(m):
        return glue(GluingSpec(m, two, m.one, b, {m.one: b}))

    def glue_above(m):
        return glue(GluingSpec(two, m, two.one, least, {two.one: least}))

    return {
        "partition": partition,
        "congruence_lattice": congruence_lattice,
        "decompose": decompose,
        "glue (lower factor)": glue_below,
        "glue (upper factor)": glue_above,
        "split": lambda m: split(m, atom),
        "congruence_from_filter": lambda m: congruence_from_filter(m, f),
        "quotient": lambda m: quotient(m, theta),
        "reassemble": lambda m: reassemble(Leaf(m)),
        "is_distributive_semilattice": is_distributive_semilattice,
        "is_lattice_distributive": is_lattice_distributive,
        "is_semilinear": is_semilinear,
    }


class TestValueErrorContract:
    def test_non_members_raise_value_error(self, a1):
        calls = entry_points(a1)
        count = 0
        for m in rejected_mutants(a1):
            for call in calls.values():
                with pytest.raises(ValueError, match="fails axiom"):
                    call(m)
            count += 1
        # 55 cells x <= y, 9 other values, 2 tables; validate rejects all
        assert count == 990

    def test_members_pass(self, a1):
        for call in entry_points(a1).values():
            call(a1)
