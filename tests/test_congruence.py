import pytest

from oracles import (classes_of, naive_congruences, naive_quotient,
                     relation_of, scan_congruence)
from rlat import find_isomorphism, validate
from rlat.congruence import (congruence_from_filter, congruence_lattice,
                             quotient)
from rlat.core import bits
from rlat.generate import boolean_algebra, build_an


def cone_ids(alg):
    return list(bits(alg.neg_cone))


def cone_filter(alg, g):
    """The filter of the negative cone that the unit class of g's
    congruence cuts from the cone."""
    one_class = congruence_from_filter(alg, g).one_class
    return {x for x in one_class if alg.leq(x, alg.one)}


def cone_tops(alg):
    """The negative cone without the unit, and its greatest elements."""
    jn, one = alg.join, alg.one
    cone = [x for x in range(alg.n) if jn[x][one] == one and x != one]
    return cone, [m for m in cone if all(jn[x][m] == m for x in cone)]


def covers(above, x):
    """The covers of x in the order whose strict up-sets above lists."""
    return [y for y in above[x] if not any(y in above[z] for z in above[x])]


def meet_irreducible_generators(alg):
    """The cone elements with one lower cover in the cone: the generators
    of the completely meet-irreducible congruences."""
    cone = cone_ids(alg)
    below = {a: [c for c in cone if c != a and alg.leq(c, a)] for a in cone}
    return [a for a in cone if len(covers(below, a)) == 1]


class TestFilters:
    def test_one_filter_per_cone_element(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            filters = [frozenset(cone_filter(alg, g)) for g in cone_ids(alg)]
            assert len(set(filters)) == len(cone_ids(alg))
            # each generator is the least element of its filter
            for g, f in zip(cone_ids(alg), filters):
                assert g in f and all(alg.leq(g, x) for x in f)

    def test_filters_are_principal_upsets(self, a1):
        cone = set(cone_ids(a1))
        for g in cone:
            expect = {x for x in cone if a1.leq(g, x)}
            f = cone_filter(a1, g)
            assert f == expect
            assert a1.one in f

    def test_filters_are_meet_closed(self, a1):
        for g in cone_ids(a1):
            elems = cone_filter(a1, g)
            for x in elems:
                for y in elems:
                    assert a1.meet[x][y] in elems


class TestCongruenceFromFilter:
    def test_round_trip_through_one_class(self, a1, corpus6):
        # the least element of the filter the unit class cuts from the
        # cone is the generator, which gives back the congruence
        for alg in [a1] + list(corpus6.algebras):
            for g in cone_ids(alg):
                theta = congruence_from_filter(alg, g)
                back = cone_filter(alg, g)
                least = [x for x in back if all(alg.leq(x, y) for y in back)]
                assert least == [g]
                assert congruence_from_filter(alg, least[0]).relation \
                    == theta.relation

    def test_one_class_is_monoidal_upset(self, a1):
        for g in cone_ids(a1):
            theta = congruence_from_filter(a1, g)
            expect = {x for x in range(a1.n) if a1.mleq(g, x)}
            assert set(theta.one_class) == expect

    def test_one_class_is_convex_subuniverse(self, a1):
        # closed under join, fusion and residual, and order-convex;
        # negation-closure is equivalent to the generator lying below zero
        for g in cone_ids(a1):
            h = set(congruence_from_filter(a1, g).one_class)
            for x in h:
                for y in h:
                    assert a1.join[x][y] in h
                    assert a1.fusion[x][y] in h
                    assert a1.imp[x][y] in h
            for lo in h:
                for hi in h:
                    for y in range(a1.n):
                        if a1.leq(lo, y) and a1.leq(y, hi):
                            assert y in h

    def test_neg_closure_iff_generator_below_zero(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            for g in cone_ids(alg):
                h = set(congruence_from_filter(alg, g).one_class)
                closed = all(alg.neg[x] in h for x in h)
                assert closed == alg.leq(g, alg.zero)

    def test_rejects_generator_outside_the_cone(self, a1):
        top = a1.element("top")
        with pytest.raises(ValueError, match="not in the negative cone"):
            congruence_from_filter(a1, top)
        # ids outside the carrier are named, not shifted by
        for gen in (-1, a1.n):
            with pytest.raises(ValueError, match="no element has id %d" % gen):
                congruence_from_filter(a1, gen)


class TestCongruenceOracles:
    """congruence_lattice builds each congruence as the kernel of x |-> a.x
    and checks none of them; the oracles re-check what it returns."""

    def test_every_relation_passes_the_scan(self, a1, corpus6):
        subjects = ([a1, boolean_algebra(3)] + [build_an(k) for k in range(4)]
                    + list(corpus6.algebras))
        for alg in subjects:
            for theta in congruence_lattice(alg).congruences:
                assert scan_congruence(alg, theta.relation) is None

    def test_equals_naive_congruences(self, a1, corpus7):
        # every congruence is the kernel of some x |-> a.x, here on every
        # member of size <= 7, on a1 (n = 10) and on a Boolean algebra
        for alg in corpus7 + [a1, boolean_algebra(3)]:
            got = {t.relation for t in congruence_lattice(alg).congruences}
            expect = {relation_of(vec) for vec in naive_congruences(alg)}
            assert got == expect


class TestSubdirectlyIrreducible:
    """Congruences correspond to the negative cone, the unit to the
    identity, larger congruences to lower elements. So a member is
    subdirectly irreducible (SI), with one minimal non-identity congruence,
    iff the cone without the unit has a greatest element, and simple, with
    two congruences, iff that set has one element. The congruences here
    are the oracle's set partitions."""

    def test_cone_criterion_matches_naive_congruences(self, corpus8):
        si, simple = [0] * 8, [0] * 8
        for alg in corpus8.algebras:
            n = alg.n
            cone, tops = cone_tops(alg)
            cons = naive_congruences(alg)
            proper = [c for c in cons if c != tuple(range(n))]
            # c is finer than d iff each class of c lies in one of d
            minimal = [d for d in proper if not any(
                c != d and len(set(zip(c, d))) == len(set(c))
                for c in proper)]
            assert (len(tops) == 1) == (len(minimal) == 1), alg
            assert (len(cone) == 1) == (len(cons) == 2), alg
            si[n - 1] += len(tops) == 1
            simple[n - 1] += len(cone) == 1
        assert si == [0, 1, 1, 1, 2, 2, 4, 4]
        assert simple == [0, 1, 1, 0, 1, 0, 0, 0]

    @pytest.fixture(scope="class")
    def members(self, corpus8):
        return (list(corpus8.algebras) + [build_an(k) for k in range(4)]
                + [boolean_algebra(k) for k in range(5)])

    def test_meet_irreducibles_match_naive_congruences(self, members):
        # a congruence is completely meet-irreducible iff one congruence
        # covers it; larger congruences are lower cone elements
        for alg in members:
            if alg.n > 8:
                continue
            got = {frozenset(frozenset(c) for c in
                             congruence_from_filter(alg, a).classes)
                   for a in meet_irreducible_generators(alg)}
            cons = naive_congruences(alg)
            # c is finer than d iff each class of c lies in one of d
            above = {c: [d for d in cons if d != c
                         and len(set(zip(c, d))) == len(set(c))]
                     for c in cons}
            expect = {classes_of(c) for c in cons
                      if len(covers(above, c)) == 1}
            assert got == expect, alg

    def test_subdirect_representation(self, members):
        # x |-> (x/theta_a)_a, over the completely meet-irreducible
        # theta_a, embeds each member into a product of SI quotients
        for alg in members:
            factors = []
            for a in meet_irreducible_generators(alg):
                factor = quotient(alg, a)
                theta = congruence_from_filter(alg, a)
                assert len(cone_tops(factor)[1]) == 1, alg
                # each class is named by its least element
                factors.append((factor, [
                    factor.element(alg.names[theta.class_of(x)[0]])
                    for x in range(alg.n)]))
            image = {tuple(h[x] for _, h in factors) for x in range(alg.n)}
            assert len(image) == alg.n, alg
            for factor, h in factors:
                assert h[alg.one] == factor.one
                for x in range(alg.n):
                    assert h[alg.neg[x]] == factor.neg[h[x]]
                    for y in range(alg.n):
                        assert h[alg.join[x][y]] == factor.join[h[x]][h[y]]
                        assert (h[alg.fusion[x][y]]
                                == factor.fusion[h[x]][h[y]])
        for k in range(5):
            alg = boolean_algebra(k)
            assert [quotient(alg, a).n for a in
                    meet_irreducible_generators(alg)] == [2] * k


class TestCongruenceLattice:
    def test_count_equals_negative_cone(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            con = congruence_lattice(alg)
            assert len(con.congruences) == len(cone_ids(alg))

    def test_congruences_pairwise_distinct(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            con = congruence_lattice(alg)
            rels = {tuple(t.relation) for t in con.congruences}
            assert len(rels) == len(con.congruences)

    def test_order_anti_isomorphism(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            con = congruence_lattice(alg)
            k = len(con.congruences)
            for i in range(k):
                for j in range(k):
                    ri = con.congruences[i].relation
                    rj = con.congruences[j].relation
                    finer = all(ri[x] & ~rj[x] == 0 for x in range(alg.n))
                    assert finer == alg.leq(con.generators[j],
                                            con.generators[i])
                    assert finer == bool((con.refines[i] >> j) & 1)

    def test_agrees_with_partition_search(self, corpus6):
        for alg in corpus6.algebras:
            if alg.n > 5:
                continue
            got = {frozenset(frozenset(c) for c in t.classes)
                   for t in congruence_lattice(alg).congruences}
            expect = {classes_of(vec) for vec in naive_congruences(alg)}
            assert got == expect


class TestQuotient:
    def test_every_quotient_validates(self, corpus6):
        for alg in list(corpus6.algebras) + [build_an(4), boolean_algebra(5)]:
            con = congruence_lattice(alg)
            for g, theta in zip(con.generators, con.congruences):
                q = quotient(alg, g)
                assert q.n == len(theta.classes)
                assert validate(q).ok

    def test_finest_gives_back_the_algebra(self, a1):
        assert all(len(c) == 1 for c in
                   congruence_from_filter(a1, a1.one).classes)
        q = quotient(a1, a1.one)
        assert find_isomorphism(q, a1) is not None

    def test_coarsest_collapses_to_a_point(self, a1):
        total = [g for g in cone_ids(a1)
                 if len(congruence_from_filter(a1, g).one_class) == a1.n]
        assert len(total) == 1
        q = quotient(a1, total[0])
        assert q.n == 1
        assert validate(q).ok

    def test_equals_naive_quotient(self, corpus6):
        # each congruence of the partition search, by the generator whose
        # congruence has its relation
        for alg in [g for g in corpus6.algebras if g.n <= 5]:
            con = congruence_lattice(alg)
            gen_of = {t.relation: g
                      for g, t in zip(con.generators, con.congruences)}
            for vec in naive_congruences(alg):
                assert quotient(alg, gen_of[relation_of(vec)]) \
                    == naive_quotient(alg, vec)

    def test_rejects_generator_outside_the_cone(self, a1):
        with pytest.raises(ValueError, match="not in the negative cone"):
            quotient(a1, a1.element("top"))
        for bad in (None, 1.0, -1, a1.n):
            with pytest.raises(ValueError, match="no element has id"):
                quotient(a1, bad)

    def test_class_of_is_the_class_holding_x(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            for theta in congruence_lattice(alg).congruences:
                for x in range(alg.n):
                    assert theta.class_of(x) == next(
                        cls for cls in theta.classes if x in cls)
                with pytest.raises(ValueError):
                    theta.class_of(-1)

    def test_related_and_class_of(self, a1):
        con = congruence_lattice(a1)
        theta = con.congruences[con.generators.index(a1.one)]
        x = a1.element("a")
        assert theta.related(x, x)
        assert not theta.related(x, a1.one)
        assert theta.class_of(x) == (x,)
        with pytest.raises(ValueError):
            theta.class_of(a1.n + 5)
        for pair in ((-1, 0), (0, -1), (a1.n, 0), (0, a1.n)):
            with pytest.raises(ValueError, match="no element has id"):
                theta.related(*pair)
