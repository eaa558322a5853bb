"""The algebras rlat builds itself, or parses, skip the checked constructor
(FiniteInRL._of keeps their tables as given). These rebuild each one
through FiniteInRL(...), which copies and checks every table, and compare."""

from itertools import chain

from rlat import FiniteInRL
from rlat.congruence import quotient
from rlat.core import bits
from rlat.decompose import decompose, find_atoms, reassemble, split
from rlat.fileformat import parse
from rlat.generate import boolean_algebra, build_an
from rlat.gluing import glue


def assert_checked(alg):
    """alg's fields pass the checked constructor and rebuild alg."""
    rebuilt = FiniteInRL(alg.names, alg.one, alg.neg, alg.join, alg.fusion)
    assert rebuilt == alg
    assert (rebuilt.n, rebuilt.index) == (alg.n, alg.index)
    assert all(type(t) is list
               for t in chain((alg.names, alg.neg, alg.join, alg.fusion),
                              alg.join, alg.fusion))


class TestBuiltAlgebrasPassTheConstructor:
    def test_generators(self):
        for k in range(13):
            assert_checked(build_an(k))
        for k in range(7):
            assert_checked(boolean_algebra(k))

    def test_decompose_split_and_reassemble(self, a1, corpus6):
        subjects = ([a1] + list(corpus6.algebras)
                    + [build_an(k) for k in range(4)])
        for alg in subjects:
            tree = decompose(alg)
            for leaf in tree.leaves():
                assert_checked(leaf.algebra)
            assert_checked(reassemble(tree))
            for c in find_atoms(alg):
                result = split(alg, c)
                assert_checked(result.lower)
                assert_checked(result.upper)
                assert_checked(glue(result.spec))

    def test_quotients(self, corpus6):
        for alg in corpus6.algebras:
            for a in bits(alg.neg_cone):
                assert_checked(quotient(alg, a))

    def test_glue(self, sample_spec):
        assert_checked(glue(sample_spec))

    def test_enumeration(self, corpus6):
        # corpus6 is enumerate_up_to_iso(6)
        for alg in corpus6.algebras:
            assert_checked(alg)
        # no two members share a table or a row
        rows = [id(t) for alg in corpus6.algebras
                for t in chain((alg.names, alg.neg, alg.join, alg.fusion),
                               alg.join, alg.fusion)]
        assert len(set(rows)) == len(rows)

    def test_parsed_fixtures(self, fixdir):
        paths = sorted(fixdir.glob("**/*.rlat"))
        assert len(paths) > 5
        for path in paths:
            assert_checked(parse(path.read_text(encoding="utf-8")))


class TestOneIntPerId:
    def test_tables_hold_at_most_n_int_objects(self):
        # ids above 256 are not shared by the interpreter; one object per
        # id keeps the tables of the largest carriers small
        for alg in (boolean_algebra(9), build_an(70)):
            cells = chain.from_iterable(chain(alg.join, alg.fusion))
            assert len(set(map(id, cells))) <= alg.n
