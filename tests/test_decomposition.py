import pytest

from rlat import FiniteInRL, validate
from rlat.core import bits
from rlat.decompose import Leaf, Node, decompose, find_atoms, reassemble, split
from rlat.generate import boolean_algebra, build_an
from rlat.gluing import validate_gluing
from rlat.partition import partition


def name_map_isomorphism(rebuilt, original):
    """The map matching elements by name, verified as an isomorphism."""
    assert sorted(rebuilt.names) == sorted(original.names)
    m = [original.element(t) for t in rebuilt.names]
    assert m[rebuilt.one] == original.one
    for x in range(rebuilt.n):
        assert m[rebuilt.neg[x]] == original.neg[m[x]]
        for y in range(rebuilt.n):
            assert m[rebuilt.join[x][y]] == original.join[m[x]][m[y]]
            assert m[rebuilt.fusion[x][y]] == original.fusion[m[x]][m[y]]


class TestAtoms:
    def test_fixture_atom(self, a1):
        assert [a1.names[x] for x in find_atoms(a1)] == ["c"]

    def test_boolean_has_none(self):
        assert find_atoms(boolean_algebra(3)) == []

    def test_atoms_cover_the_unit(self, corpus6):
        for alg in corpus6.algebras:
            pos = alg.lat_up[alg.one]
            for c in find_atoms(alg):
                assert alg.leq(alg.one, c) and c != alg.one
                between = [z for z in bits(pos)
                           if alg.leq(alg.one, z) and alg.leq(z, c)
                           and z not in (alg.one, c)]
                assert between == []


class TestSplit:
    def test_fixture_split_shape(self, a1):
        s = split(a1, a1.element("c"))
        assert a1.names[s.c_star] == "1"
        assert s.lower.names == ["bot", "a", "-b", "b", "-a", "c", "-c",
                                 "top"]
        assert s.upper.names == ["0", "1"]
        assert s.spec.lower.names[s.spec.a] == "c"
        assert s.spec.upper.names[s.spec.b] == "0"

    def test_split_invariants(self, a1):
        s = split(a1, a1.element("c"))
        lower_ids = {a1.element(t) for t in s.lower.names}
        upper_ids = {a1.element(t) for t in s.upper.names}
        assert lower_ids | upper_ids == set(range(a1.n))
        assert lower_ids & upper_ids == set()
        neg_cs = a1.neg[s.c_star]
        for x in range(a1.n):
            assert a1.mleq(neg_cs, x) == (not a1.mleq(x, s.c))
        assert validate(s.lower).ok
        assert validate(s.upper).ok
        assert validate_gluing(s.spec).ok

    def test_phi_bijects(self, a1, corpus6):
        seen = [a1] + [g for g in corpus6.algebras if find_atoms(g)]
        for alg in seen:
            for c in find_atoms(alg):
                s = split(alg, c)
                phi = s.spec.phi
                lo, up = s.spec.lower, s.spec.upper
                assert sorted(phi) == [x for x in range(lo.n)
                                       if lo.mleq(s.spec.a, x)]
                assert sorted(phi.values()) == [y for y in range(up.n)
                                                if up.mleq(y, s.spec.b)]
                # the inverse is fusion with the old unit of the lower part
                c_new = lo.element(alg.names[c])
                for x, y in phi.items():
                    back = up.names[y]
                    img = alg.fusion[alg.element(back)][c]
                    assert lo.names[x] == alg.names[img]

    def test_non_atom_rejected(self, a1):
        with pytest.raises(ValueError):
            split(a1, a1.element("top"))
        with pytest.raises(ValueError):
            split(a1, a1.one)

    def test_validates_once(self, a1, validate_calls):
        # a fresh copy: a1 is shared, and the first check records it
        alg = FiniteInRL(a1.names, a1.one, a1.neg, a1.join, a1.fusion)
        split(alg, alg.element("c"))
        assert validate_calls == [alg]

    @pytest.mark.parametrize("c", [-1, 10, 11])
    def test_id_out_of_range_rejected(self, a1, c):
        with pytest.raises(ValueError, match="no element has id %d" % c):
            split(a1, c)


class TestDecompose:
    def test_boolean_is_a_leaf(self):
        tree = decompose(boolean_algebra(2))
        assert isinstance(tree, Leaf)

    def test_fixture_tree(self, a1):
        tree = decompose(a1)
        assert isinstance(tree, Node)
        assert tree.atom == "c"
        assert sorted(l.algebra.n for l in tree.leaves()) == [2, 4, 4]

    def test_leaves_are_single_blocks(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            for leaf in decompose(alg).leaves():
                assert len(partition(leaf.algebra).blocks) == 1

    def test_leaves_are_the_blocks(self, a1, corpus6):
        # each leaf holds the elements of one Boolean block, by name, and
        # each block is one leaf
        algebras = ([a1] + list(corpus6.algebras)
                    + [build_an(k) for k in range(6)] + [boolean_algebra(3)])
        for alg in algebras:
            leaves = [frozenset(l.algebra.names)
                      for l in decompose(alg).leaves()]
            blocks = {frozenset(alg.names[x] for x in b.elements)
                      for b in partition(alg).blocks}
            assert len(leaves) == len(blocks) and set(leaves) == blocks

    def test_one_algebra_built_per_leaf(self, a1, built):
        for alg, leaves in ((a1, 3), (build_an(16), 18)):
            del built[:]
            tree = decompose(alg)
            assert [id(l.algebra) for l in tree.leaves()] == list(
                map(id, built))
            assert len(built) == leaves
        # an atomless member is its own leaf
        alg = boolean_algebra(3)
        del built[:]
        assert decompose(alg).algebra is alg and built == []

    def test_root_names_are_the_split(self, a1, corpus6):
        seen = [a1] + [build_an(k) for k in range(4)] + [
            g for g in corpus6.algebras if find_atoms(g)]
        for alg in seen:
            tree = decompose(alg)
            s = split(alg, find_atoms(alg)[0])
            lo, up = s.spec.lower, s.spec.upper
            assert (tree.atom, tree.complement, tree.a, tree.b) == (
                alg.names[s.c], alg.names[s.c_star], lo.names[s.spec.a],
                up.names[s.spec.b])
            assert tree.pairs == tuple((lo.names[x], up.names[y])
                                       for x, y in sorted(s.spec.phi.items()))


class TestReassemble:
    def test_fixture_round_trip(self, a1):
        rebuilt = reassemble(decompose(a1))
        name_map_isomorphism(rebuilt, a1)

    def test_corpus_round_trip(self, corpus6):
        for alg in corpus6.algebras:
            rebuilt = reassemble(decompose(alg))
            name_map_isomorphism(rebuilt, alg)

    def test_family_round_trip(self):
        for n in (0, 1, 2, 3, 16):
            alg = build_an(n)
            rebuilt = reassemble(decompose(alg))
            name_map_isomorphism(rebuilt, alg)

    def test_leaf_reassembles_to_itself(self):
        alg = boolean_algebra(2)
        assert reassemble(decompose(alg)) == alg
