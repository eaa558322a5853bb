"""Congruences via filters of the negative cone.

On a finite member every filter of the negative cone is the principal up-set
of its least element a, and the induced congruence is the kernel of x |-> a.x:
x and y are related exactly when a.x = a.y. The congruence lattice is
therefore order-anti-isomorphic to the negative cone, and the API names
each congruence by its generator a.
"""

from collections import namedtuple

from .core import _image, bits, check_member, element_id, mask_of


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


def congruence_from_filter(alg, a):
    """The congruence of the filter generated by a: its unit class is the
    monoidal up-set of a.

    Raises ValueError if alg is not a member or a is not an element id in
    its negative cone.
    """
    check_member(alg)
    if not alg.neg_cone >> element_id(a, alg.n) & 1:
        raise ValueError("filter generator %d is not in the negative cone"
                         % a)
    return _kernel(alg, a)


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
    mask = {key: mask_of(cls) for key, cls in members.items()}
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


def quotient(alg, a):
    """Algebra on the classes of congruence_from_filter(alg, a), each named
    by its least element; operations induced classwise.

    Raises ValueError as congruence_from_filter does. The classes are the
    kernel of x |-> a.x, a congruence by the theorem in the module
    docstring, so neither they nor the quotient are checked.
    """
    theta = congruence_from_filter(alg, a)
    cls_of = {x: i for i, cls in enumerate(theta.classes) for x in cls}
    return _image(alg, [cls[0] for cls in theta.classes], cls_of, alg.one)
