"""Congruences via filters of the negative cone.

On a finite member every filter of the negative cone is the principal up-set
of its least element a, and the induced congruence is the kernel of x |-> a.x:
x and y are related exactly when a.x = a.y. The congruence lattice is
therefore order-anti-isomorphic to the negative cone.
"""

from collections import namedtuple
from itertools import chain

from .core import (FiniteInRL, _first_ne, bits, check_member, element_id,
                   is_id, mask_of)


class NegConeFilter(namedtuple("NegConeFilter", "elements generator")):
    """elements: a sorted subset of the negative cone; generator: its least
    element, whose up-set in the cone the filter is."""
    __slots__ = ()


class Congruence(namedtuple("Congruence", "relation classes one_class")):
    """relation: n bitmask rows, bit y of row x set iff x related y; classes:
    sorted id tuples, by least id; one_class: the class of the unit."""
    __slots__ = ()

    def related(self, x, y):
        return self.class_of(x) == self.class_of(y)

    def class_of(self, x):
        return tuple(bits(self.relation[element_id(x, len(self.relation))]))


class ConLattice(namedtuple("ConLattice", "congruences generators refines")):
    """generators[i]: the filter generator of congruences[i], in cone order;
    refines: bit rows over congruence indexes, bit j of row i if i refines j."""
    __slots__ = ()


def filters_of_negative_cone(alg):
    """All filters of the negative cone, one per cone element (finite case)."""
    cone = alg.neg_cone
    return [NegConeFilter(tuple(bits(cone & alg.lat_up[a])), a)
            for a in bits(cone)]


def congruence_from_filter(alg, f):
    """The congruence whose unit class is the monoidal up-set of f's generator.

    Raises ValueError if alg is not a member or the generator is not in its
    negative cone.
    """
    check_member(alg)
    if not alg.neg_cone >> element_id(f.generator, alg.n) & 1:
        raise ValueError("filter generator %d is not in the negative cone"
                         % f.generator)
    return _kernel(alg, f.generator)


def _kernel(alg, a):
    """The kernel of x |-> a.x for a in the negative cone of a member.

    It relates x and y iff a.x <= y and a.y <= x, the congruence of the
    filter generated by a: a <= 1 gives a.y <= y, and idempotence gives
    the converse. Classes are sorted by least element, so the unit class
    is the class of a.1 = a, the monoidal up-set of a.
    """
    row_a = alg.fusion[a]
    members = {}
    for x in range(alg.n):
        members.setdefault(row_a[x], []).append(x)
    classes = tuple(tuple(cls) for cls in members.values())
    mask = {key: sum(1 << y for y in cls) for key, cls in members.items()}
    rel = tuple(mask[v] for v in row_a)
    return Congruence(rel, classes, tuple(members[a]))


def congruence_lattice(alg):
    """All congruences ordered by refinement, anti-isomorphic to the cone.

    Raises ValueError if alg is not a member. Congruence i refines
    congruence j exactly when generator j lies below generator i.
    """
    check_member(alg)
    generators = tuple(bits(alg.neg_cone))
    congruences = tuple(_kernel(alg, a) for a in generators)
    # generator j is below generator i: lat_dn[gi] in generator indexes
    index = {g: j for j, g in enumerate(generators)}
    refines = tuple(mask_of(map(index.__getitem__, bits(alg.lat_dn[gi])))
                    for gi in generators)
    return ConLattice(congruences, generators, refines)


def quotient(alg, theta):
    """Algebra on the classes of theta; operations induced classwise.

    Raises ValueError if alg is not a member, if theta's classes do not
    hold each element once or its relation is not theirs, or if they do
    not respect the operations; the quotient is not checked again.
    """
    check_member(alg)
    cls_of = [None] * alg.n
    for i, cls in enumerate(theta.classes):
        if not cls:
            raise ValueError("class %d is empty" % i)
        for x in cls:
            if not is_id(x, alg.n) or cls_of[x] is not None:
                raise ValueError("class %d holds %r, outside the carrier "
                                 "or twice" % (i, x))
            cls_of[x] = i
    if None in cls_of:
        raise ValueError("classes do not cover the carrier")
    masks = [mask_of(cls) for cls in theta.classes]
    if list(theta.relation) != [masks[i] for i in cls_of]:
        raise ValueError("relation is not the relation of the classes")

    # row x: the classes of neg x, then of x v z and x.z for each z; the
    # first element whose row is not its class minimum's, and the first
    # difference, name the operation that the classes do not respect
    m = cls_of.__getitem__
    rows = [[m(nx), *map(m, chain.from_iterable(zip(jr, fr)))]
            for nx, jr, fr in zip(alg.neg, alg.join, alg.fusion)]
    for cls in sorted(map(sorted, theta.classes)):
        for y in cls[1:]:
            z = _first_ne(rows[y], rows[cls[0]])
            if z is not None:
                raise ValueError("%s is ill-defined on classes" % (
                    "negation", "join", "fusion")[z and 2 - z % 2])

    reps = [cls[0] for cls in theta.classes]

    def table(offset):
        cols = [2 * r + offset for r in reps]
        return [list(map(rows[r].__getitem__, cols)) for r in reps]

    return FiniteInRL([alg.names[r] for r in reps], cls_of[alg.one],
                      [rows[r][0] for r in reps], table(1), table(2))
