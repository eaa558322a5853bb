import pytest

from oracles import (lattice_distributivity_witness,
                     semilattice_distributivity_witness)
from rlat import validate
from rlat.generate import boolean_algebra, build_an
from rlat.props import (is_distributive_semilattice, is_lattice_distributive,
                        is_semilinear)

# pentagon: 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b
N5_MEET = [
    [0, 0, 0, 0, 0],
    [0, 1, 1, 0, 1],
    [0, 1, 2, 0, 2],
    [0, 0, 0, 3, 3],
    [0, 1, 2, 3, 4],
]


class TestSemilatticeDistributivity:
    """The condition on explicit tables is decided by the oracle; the
    library trusts the paper's theorem for members."""

    def test_pentagon_fails_with_witness(self):
        w = semilattice_distributivity_witness(N5_MEET)
        assert w == (2, 3, 1)
        x, y, z = w
        mt = N5_MEET
        assert mt[mt[x][y]][z] == mt[x][y]
        for xp in range(5):
            for yp in range(5):
                if mt[x][xp] == x and mt[y][yp] == y:
                    assert mt[xp][yp] != z

    def test_holds_on_fixture_and_family(self, a1):
        assert semilattice_distributivity_witness(a1.fusion) is None
        for n in range(5):
            assert semilattice_distributivity_witness(
                build_an(n).fusion) is None

    def test_holds_on_corpus(self, corpus6):
        for alg in corpus6.algebras:
            assert semilattice_distributivity_witness(alg.fusion) is None

    def test_matches_oracle(self, a1, order_corpus):
        # fusion and meet tables of members and non-members
        failed = {"fusion": 0, "meet": 0}
        for alg in order_corpus:
            for label in failed:
                w = semilattice_distributivity_witness(getattr(alg, label))
                failed[label] += w is not None
            # a member's verdict is the table's, by the paper's theorem;
            # a non-member is rejected
            if validate(alg).ok:
                assert semilattice_distributivity_witness(alg.fusion) is None
                assert is_distributive_semilattice(alg) == (True, None)
            else:
                with pytest.raises(ValueError, match="fails axiom"):
                    is_distributive_semilattice(alg)
        assert semilattice_distributivity_witness(a1.meet) is not None
        assert failed == {"fusion": 686, "meet": 2159}


class TestLatticeDistributivity:
    def test_fixture_fails(self, a1):
        v = is_lattice_distributive(a1)
        assert not v.holds
        assert tuple(a1.names[i] for i in v.witness) == ("a", "-b", "0")
        x, y, z = v.witness
        assert a1.meet[x][a1.join[y][z]] \
            != a1.join[a1.meet[x][y]][a1.meet[x][z]]

    def test_boolean_holds(self):
        for k in range(4):
            assert is_lattice_distributive(boolean_algebra(k)).holds

    def test_matches_oracle(self, corpus7):
        # same verdict and same first witness as the triple loop
        algs = (corpus7 + [build_an(k) for k in range(4)]
                + [boolean_algebra(k) for k in range(5)])
        failed = 0
        for alg in algs:
            v = is_lattice_distributive(alg)
            w = lattice_distributivity_witness(alg.join)
            assert (v.holds, v.witness) == (w is None, w), alg
            failed += not v.holds
        assert (len(algs), failed) == (24, 9)


class TestSemilinearity:
    def test_fixture_fails_at_named_pair(self, a1):
        v = is_semilinear(a1)
        assert not v.holds
        assert tuple(a1.names[i] for i in v.witness) == ("a", "-b")
        x, y = v.witness
        one = a1.one
        lhs = a1.join[a1.meet[a1.imp[x][y]][one]][a1.meet[a1.imp[y][x]][one]]
        assert lhs != one

    def test_witness_is_lexicographically_least(self, a1):
        x, y = is_semilinear(a1).witness
        one = a1.one
        for u in range(a1.n):
            for w in range(a1.n):
                if (u, w) >= (x, y):
                    break
                lhs = a1.join[a1.meet[a1.imp[u][w]][one]][
                    a1.meet[a1.imp[w][u]][one]]
                assert lhs == one

    def test_chain_and_boolean_hold(self):
        assert is_semilinear(boolean_algebra(1)).holds
        assert is_semilinear(boolean_algebra(2)).holds

    def test_family_members_fail(self):
        for n in range(3):
            assert not is_semilinear(build_an(n)).holds
