"""The public entry points check the algebras they receive, once.

Each raises ValueError on a non-member, and on nothing else; what they build
from members is a member by the paper's theorems and is not checked again.
Those that take element ids raise ValueError on anything but an int in the
carrier's range: a float, a name, None or an int out of range. The
generators and the enumerator raise ValueError on a size that is no int.
"""

import re

import pytest

from rlat import FiniteInRL, validate
from rlat.congruence import (congruence_from_filter, congruence_lattice,
                             quotient)
from rlat.decompose import Leaf, decompose, find_atoms, reassemble, split
from rlat.fileformat import dot_export
from rlat.generate import boolean_algebra, build_an
from rlat.gluing import GluingSpec, glue, validate_gluing
from rlat.partition import block, partition
from rlat.props import (is_distributive_semilattice, is_lattice_distributive,
                        is_semilinear, subalgebra_generated)
from rlat.search import enumerate_up_to_iso


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
    g = a1.one
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
        "congruence_from_filter": lambda m: congruence_from_filter(m, g),
        "quotient": lambda m: quotient(m, g),
        "reassemble": lambda m: reassemble(Leaf(m)),
        "is_distributive_semilattice": is_distributive_semilattice,
        "is_lattice_distributive": is_lattice_distributive,
        "is_semilinear": is_semilinear,
        "block": lambda m: block(m, g),
        "find_atoms": find_atoms,
        "dot_export (lattice)": lambda m: dot_export(m, "lattice"),
        "dot_export (monoidal)": lambda m: dot_export(m, "monoidal"),
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


def two_chain_spec():
    """Stack one two-element algebra on top of another."""
    lo, up = boolean_algebra(1), boolean_algebra(1)
    return GluingSpec(lo, up, lo.element("1"), up.element("0"),
                      {lo.element("1"): up.element("0")})


def id_entry_points(a1):
    """One call per public entry point and id argument, each taking the id,
    with the algebra whose carrier the id must lie in."""
    theta = congruence_lattice(a1).congruences[0]
    s = two_chain_spec()
    return {
        "leq (first)": (a1, lambda x: a1.leq(x, 0)),
        "leq (second)": (a1, lambda x: a1.leq(0, x)),
        "mleq (first)": (a1, lambda x: a1.mleq(x, 0)),
        "mleq (second)": (a1, lambda x: a1.mleq(0, x)),
        "split": (a1, lambda x: split(a1, x)),
        "block": (a1, lambda x: block(a1, x)),
        "subalgebra_generated": (a1, lambda x: subalgebra_generated(a1, [x])),
        "Congruence.class_of": (a1, theta.class_of),
        "Congruence.related (first)": (a1, lambda x: theta.related(x, 0)),
        "Congruence.related (second)": (a1, lambda x: theta.related(0, x)),
        "congruence_from_filter": (a1, lambda x: congruence_from_filter(
            a1, x)),
        "quotient": (a1, lambda x: quotient(a1, x)),
        "glue (a)": (s.lower, lambda x: glue(s._replace(a=x))),
        "glue (b)": (s.upper, lambda x: glue(s._replace(b=x))),
        "glue (phi key)": (s.lower, lambda x: glue(s._replace(
            phi={x: s.b}))),
        "glue (phi value)": (s.upper, lambda x: glue(s._replace(
            phi={s.a: x}))),
    }


def bad_ids(alg):
    """Values that are no element id of alg, one of them an element's name
    (the last, so a digit when the names are digits)."""
    return [None, 1.0, alg.names[-1], -1, alg.n]


class TestElementIdContract:
    # the entry names only; each test builds its calls on a1
    @pytest.mark.parametrize("entry", sorted(id_entry_points(
        boolean_algebra(2))))
    @pytest.mark.parametrize("kind", range(5),
                             ids=["None", "float", "name", "-1", "n"])
    def test_bad_id_raises_value_error(self, a1, entry, kind):
        alg, call = id_entry_points(a1)[entry]
        with pytest.raises(ValueError):
            call(bad_ids(alg)[kind])

    def test_glue_raises_exactly_when_validate_gluing_fails(self,
                                                            sample_spec):
        specs = []
        for s in (two_chain_spec(), sample_spec):
            x, y = s.a, s.phi[s.a]
            specs += [s, s._replace(phi={})]
            specs += [s._replace(a=v) for v in bad_ids(s.lower)]
            specs += [s._replace(b=v) for v in bad_ids(s.upper)]
            specs += [s._replace(phi={v: y}) for v in bad_ids(s.lower)]
            specs += [s._replace(phi={x: v}) for v in bad_ids(s.upper)]
        verdicts = []
        for spec in specs:
            ok = validate_gluing(spec).ok
            verdicts.append(ok)
            if ok:
                assert validate(glue(spec)).ok
            else:
                with pytest.raises(ValueError):
                    glue(spec)
        assert verdicts.count(True) == 2

    @pytest.mark.parametrize("phi", [[(1, 0)], ((1, 0),), None, 1],
                             ids=["list", "tuple", "None", "int"])
    def test_phi_that_is_no_mapping(self, phi):
        # a list of pairs is what GluingSpecFile.pairs holds, by name
        spec = two_chain_spec()._replace(phi=phi)
        with pytest.raises(ValueError, match="phi must be a mapping, not "
                           + re.escape(repr(phi))):
            glue(spec)
        rep = validate_gluing(spec)
        assert rep.checks == [("spec references elements of both carriers",
                               False, None)]


class TestSizeContract:
    # a size that is no int is named in a ValueError before any other check
    # reads it; bools are ints, as for element ids
    @pytest.mark.parametrize("call, size", [
        (boolean_algebra, 2.0), (boolean_algebra, "2"),
        (build_an, 1.5), (build_an, None),
        (enumerate_up_to_iso, 2.5), (enumerate_up_to_iso, "3"),
    ])
    def test_non_int_size_raises_value_error(self, call, size):
        with pytest.raises(ValueError, match="must be an int, not %s"
                           % re.escape(repr(size))):
            call(size)

    def test_bool_size_is_an_int(self):
        assert boolean_algebra(True).n == 2
        assert build_an(True).n == 10
        assert enumerate_up_to_iso(True).counts == {1: 1}
