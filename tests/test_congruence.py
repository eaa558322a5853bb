import pytest

from oracles import (classes_of, naive_congruences, relation_of,
                     scan_congruence)
from rlat import find_isomorphism, validate
from rlat.congruence import (Congruence, NegConeFilter,
                             congruence_from_filter, congruence_lattice,
                             filters_of_negative_cone, quotient)
from rlat.core import bits, mask_of
from rlat.generate import boolean_algebra, build_an


def cone_ids(alg):
    return list(bits(alg.neg_cone))


class TestFilters:
    def test_one_filter_per_cone_element(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            filters = filters_of_negative_cone(alg)
            assert len(filters) == len(cone_ids(alg))
            assert sorted(f.generator for f in filters) == cone_ids(alg)

    def test_filters_are_principal_upsets(self, a1):
        cone = set(cone_ids(a1))
        for f in filters_of_negative_cone(a1):
            expect = {x for x in cone if a1.leq(f.generator, x)}
            assert set(f.elements) == expect
            assert a1.one in f.elements

    def test_filters_are_meet_closed(self, a1):
        for f in filters_of_negative_cone(a1):
            elems = set(f.elements)
            for x in elems:
                for y in elems:
                    assert a1.meet[x][y] in elems


class TestCongruenceFromFilter:
    def test_round_trip_through_one_class(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            for f in filters_of_negative_cone(alg):
                theta = congruence_from_filter(alg, f)
                back = {x for x in theta.one_class
                        if alg.leq(x, alg.one)}
                assert back == set(f.elements)
                again = next(
                    g for g in filters_of_negative_cone(alg)
                    if set(g.elements) == back)
                assert congruence_from_filter(alg, again).relation \
                    == theta.relation

    def test_one_class_is_monoidal_upset(self, a1):
        for f in filters_of_negative_cone(a1):
            theta = congruence_from_filter(a1, f)
            expect = {x for x in range(a1.n)
                      if a1.mleq(f.generator, x)}
            assert set(theta.one_class) == expect

    def test_one_class_is_convex_subuniverse(self, a1):
        # closed under join, fusion and residual, and order-convex;
        # negation-closure is equivalent to the generator lying below zero
        for f in filters_of_negative_cone(a1):
            h = set(congruence_from_filter(a1, f).one_class)
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
            for f in filters_of_negative_cone(alg):
                h = set(congruence_from_filter(alg, f).one_class)
                closed = all(alg.neg[x] in h for x in h)
                assert closed == alg.leq(f.generator, alg.zero)

    def test_rejects_generator_outside_the_cone(self, a1):
        top = a1.element("top")
        with pytest.raises(ValueError):
            congruence_from_filter(a1, NegConeFilter((top,), top))
        # ids outside the carrier are named, not shifted by
        for gen in (-1, a1.n):
            with pytest.raises(ValueError, match="no element has id %d" % gen):
                congruence_from_filter(a1, NegConeFilter((), gen))


class TestCongruenceOracles:
    """congruence_lattice builds each congruence as the kernel of x |-> a.x
    and checks none of them; the oracles re-check what it returns."""

    def test_every_relation_passes_the_scan(self, a1, corpus6):
        subjects = ([a1, boolean_algebra(3)] + [build_an(k) for k in range(4)]
                    + list(corpus6.algebras))
        for alg in subjects:
            for theta in congruence_lattice(alg).congruences:
                assert scan_congruence(alg, theta.relation) is None

    def test_equals_naive_congruences(self, corpus6):
        small = [g for g in corpus6.algebras if g.n <= 5]
        for alg in small + [boolean_algebra(3)]:
            got = {t.relation for t in congruence_lattice(alg).congruences}
            expect = {relation_of(vec) for vec in naive_congruences(alg)}
            assert got == expect


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
            for theta in congruence_lattice(alg).congruences:
                q = quotient(alg, theta)
                assert q.n == len(theta.classes)
                assert validate(q).ok

    def test_finest_gives_back_the_algebra(self, a1):
        con = congruence_lattice(a1)
        i = con.generators.index(a1.one)
        theta = con.congruences[i]
        assert all(len(c) == 1 for c in theta.classes)
        q = quotient(a1, theta)
        assert find_isomorphism(q, a1) is not None

    def test_coarsest_collapses_to_a_point(self, a1):
        con = congruence_lattice(a1)
        total = [t for t in con.congruences
                 if len(t.one_class) == a1.n]
        assert len(total) == 1
        q = quotient(a1, total[0])
        assert q.n == 1
        assert validate(q).ok

    @pytest.mark.parametrize("classes, message", [
        ([["bot", "a", "-b", "b", "-a", "c", "-c", "0"], ["1"]],
         "classes do not cover the carrier"),
        ([["bot", "a", "-b", "b", "-a", "c", "-c", "0"], ["1"], ["top"]],
         "negation is ill-defined on classes"),
        ([["bot", "a", "-b", "b", "-a", "c", "-c", "top"], ["0"], ["1"]],
         "join is ill-defined on classes"),
        ([["bot", "-b", "-a", "0"], ["a", "b", "c", "-c", "top"], ["1"]],
         "fusion is ill-defined on classes"),
    ])
    def test_rejects_classes_that_are_not_a_congruence(self, a1, classes,
                                                       message):
        classes = tuple(tuple(map(a1.element, cls)) for cls in classes)
        rows = {x: mask_of(cls) for cls in classes for x in cls}
        theta = Congruence(tuple(rows.get(x, 0) for x in range(a1.n)),
                           classes, classes[1])
        with pytest.raises(ValueError, match=message):
            quotient(a1, theta)

    @pytest.mark.parametrize("relation, classes, message", [
        # the identity relation beside classes that merge 0 and 1
        ((1, 2, 4, 8), ((0, 1), (2,), (3,)),
         "relation is not the relation of the classes"),
        ((3, 3, 4, 8), ((0, 1), (2,), (3, 4)),
         "class 2 holds 4, outside the carrier or twice"),
        ((1, 2, 4, 8 | 16), ((0,), (1,), (2,), (3,)),
         "relation is not the relation of the classes"),
        ((1, 2, 4, 8), ((0,), (1,), (2,), (-1,)),
         "class 3 holds -1, outside the carrier or twice"),
        ((1, 2, 4, 8), ((0,), (1,), (2,), (3,), (3,)),
         "class 4 holds 3, outside the carrier or twice"),
        ((1, 2, 4, 8), ((0,), (1,), (), (2,), (3,)), "class 2 is empty"),
    ])
    def test_rejects_classes_that_are_not_a_partition(self, relation,
                                                      classes, message):
        # on boolean_algebra(2), whose ids are 0..3
        theta = Congruence(relation, classes, classes[-1])
        with pytest.raises(ValueError, match=message):
            quotient(boolean_algebra(2), theta)

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
