"""Congruences via filters of the negative cone.

On a finite member every filter of the negative cone is the principal up-set
of its least element a, and the induced congruence is the kernel of x |-> a.x:
x and y are related exactly when a.x = a.y. The congruence lattice is
therefore order-anti-isomorphic to the negative cone.
"""

from collections import namedtuple

from .core import FiniteInRL, bits, check_member, mask_of


class NegConeFilter(namedtuple("NegConeFilter", "elements generator")):
    """elements: a sorted subset of the negative cone; generator: its least
    element, whose up-set in the cone the filter is."""
    __slots__ = ()


class Congruence(namedtuple("Congruence", "relation classes one_class")):
    """relation: n bitmask rows, bit y of row x set iff x related y; classes:
    sorted id tuples, by least id; one_class: the class of the unit."""
    __slots__ = ()

    def related(self, x, y):
        return (self.relation[x] >> y) & 1 == 1

    def class_of(self, x):
        if not 0 <= x < len(self.relation):
            raise ValueError("element out of range")
        return tuple(bits(self.relation[x]))


class ConLattice(namedtuple("ConLattice", "congruences generators refines")):
    """generators[i]: the filter generator of congruences[i], in cone order;
    refines: bit rows over congruence indexes, bit j of row i if i refines j."""
    __slots__ = ()


def filters_of_negative_cone(alg):
    """All filters of the negative cone, one per cone element (finite case)."""
    cone = alg.neg_cone
    out = []
    for a in bits(cone):
        elements = tuple(bits(cone & alg.lat_up[a]))
        out.append(NegConeFilter(elements, a))
    return out


def congruence_from_filter(alg, f):
    """The congruence whose unit class is the monoidal up-set of f's generator.

    Raises ValueError if alg is not a member or the generator is not in its
    negative cone.
    """
    check_member(alg)
    if not (alg.neg_cone >> f.generator) & 1:
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

    Raises ValueError if alg is not a member or theta's classes do not
    respect the operations; the quotient of a member by a congruence is a
    member and is not checked again.
    """
    check_member(alg)
    n = alg.n
    cls_of = [None] * n
    for i, cls in enumerate(theta.classes):
        for x in cls:
            cls_of[x] = i
    if any(i is None for i in cls_of):
        raise ValueError("classes do not cover the carrier")
    reps = [cls[0] for cls in theta.classes]
    k = len(reps)

    for x in range(n):
        for y in bits(theta.relation[x]):
            if cls_of[alg.neg[x]] != cls_of[alg.neg[y]]:
                raise ValueError("negation is ill-defined on classes")
            for z in range(n):
                if cls_of[alg.join[x][z]] != cls_of[alg.join[y][z]]:
                    raise ValueError("join is ill-defined on classes")
                if cls_of[alg.fusion[x][z]] != cls_of[alg.fusion[y][z]]:
                    raise ValueError("fusion is ill-defined on classes")

    names = [alg.names[r] for r in reps]
    neg = [cls_of[alg.neg[r]] for r in reps]
    join = [[cls_of[alg.join[x][y]] for y in reps] for x in reps]
    fusion = [[cls_of[alg.fusion[x][y]] for y in reps] for x in reps]
    return FiniteInRL(names, cls_of[alg.one], neg, join, fusion)
