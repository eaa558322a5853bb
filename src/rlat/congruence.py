"""Congruences via filters of the negative cone.

On a finite member every filter of the negative cone is the principal up-set
of its least element a, and the induced congruence relates x and y exactly
when a.x is below y and a.y is below x. The congruence lattice is therefore
order-anti-isomorphic to the negative cone.
"""

from dataclasses import dataclass

from .core import FiniteInRL, bits, validate


@dataclass(frozen=True)
class NegConeFilter:
    elements: tuple    # sorted subset of the negative cone
    generator: int     # least element; the filter is its up-set in the cone


@dataclass
class Congruence:
    relation: tuple    # n bitmask rows; bit y of row x set iff x related y
    classes: tuple     # tuples of element ids, each sorted; sorted by min
    one_class: tuple   # the class of the unit

    def related(self, x, y):
        return (self.relation[x] >> y) & 1 == 1

    def class_of(self, x):
        for cls in self.classes:
            if x in cls:
                return cls
        raise ValueError("element out of range")


@dataclass
class ConLattice:
    congruences: tuple   # indexed by cone element order
    generators: tuple    # generators[i] is the filter generator of entry i
    refines: tuple       # bit rows over congruence indexes: i refines j


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

    The result is re-verified as a reflexive, symmetric, transitive relation
    compatible with join, fusion, and negation; a failure here means the
    input algebra was not a valid member. An O(n^2) class-representative
    check decides; the O(n^3) scan runs only on a failure, to name it in
    the ValueError message.
    """
    a = f.generator
    n = alg.n
    fu = alg.fusion
    rows = []
    for x in range(n):
        row = 0
        ax = fu[a][x]
        for y in range(n):
            if alg.leq(ax, y) and alg.leq(fu[a][y], x):
                row |= 1 << y
        rows.append(row)
    rel = tuple(rows)

    _check_congruence(alg, rel)

    seen = 0
    classes = []
    for x in range(n):
        if (seen >> x) & 1:
            continue
        cls = tuple(bits(rel[x]))
        classes.append(cls)
        for y in cls:
            seen |= 1 << y
    classes = tuple(classes)
    one_class = next(cls for cls in classes if alg.one in cls)
    expected = tuple(bits(alg.mon_up[a]))
    if one_class != expected:
        raise ValueError("unit class differs from the monoidal up-set of %s"
                         % alg.names[a])
    return Congruence(rel, classes, one_class)


def _check_congruence(alg, rel):
    """Raise ValueError unless rel is a congruence of alg.

    _congruence_ok decides; the element-by-element scan below runs only on
    a failure, to raise the message naming the first broken property.
    """
    if _congruence_ok(alg, rel):
        return
    n = alg.n
    for x in range(n):
        if not (rel[x] >> x) & 1:
            raise ValueError("relation is not reflexive")
        for y in bits(rel[x]):
            if not (rel[y] >> x) & 1:
                raise ValueError("relation is not symmetric")
            if rel[x] | rel[y] != rel[x]:
                raise ValueError("relation is not transitive")
            if alg.neg[x] != alg.neg[y] and not \
                    (rel[alg.neg[x]] >> alg.neg[y]) & 1:
                raise ValueError("relation ignores negation")
            for z in range(n):
                if not (rel[alg.join[x][z]] >> alg.join[y][z]) & 1:
                    raise ValueError("relation ignores join")
                if not (rel[alg.fusion[x][z]] >> alg.fusion[y][z]) & 1:
                    raise ValueError("relation ignores fusion")


def _congruence_ok(alg, rel):
    """Whether rel is an equivalence compatible with neg, join and fusion.

    A reflexive relation is an equivalence exactly when every y related to x
    has the same row as x. Then, with rep(x) the least element of x's class,
    it is compatible exactly when neg x ~ neg rep(x) and op(x, z) ~
    op(rep(x), z) for every z: two related elements share their rep.
    O(n^2), against the scan's O(n * sum of class sizes * n).
    """
    n = alg.n
    if any(not (rel[x] >> x) & 1 for x in range(n)):
        return False
    if any(rel[y] != rel[x] for x in range(n) for y in bits(rel[x])):
        return False
    rep = [(row & -row).bit_length() - 1 for row in rel]
    if any(rep[alg.neg[x]] != rep[alg.neg[rep[x]]] for x in range(n)):
        return False
    for table in (alg.join, alg.fusion):
        classwise = [[rep[v] for v in row] for row in table]
        if any(classwise[x] != classwise[rep[x]] for x in range(n)):
            return False
    return True


def congruence_lattice(alg):
    """All congruences ordered by refinement, anti-isomorphic to the cone.

    The anti-isomorphism (cone element a maps to the congruence of its
    filter) is verified exhaustively before returning.
    """
    filters = filters_of_negative_cone(alg)
    congruences = tuple(congruence_from_filter(alg, f) for f in filters)
    generators = tuple(f.generator for f in filters)
    k = len(congruences)

    for i in range(k):
        for j in range(i + 1, k):
            if congruences[i].relation == congruences[j].relation:
                raise ValueError("distinct filters induced one congruence")

    refines = []
    for i in range(k):
        row = 0
        for j in range(k):
            if all(congruences[i].relation[x] & ~congruences[j].relation[x]
                   == 0 for x in range(alg.n)):
                row |= 1 << j
        refines.append(row)
    refines = tuple(refines)

    for i in range(k):
        for j in range(k):
            smaller = alg.leq(generators[i], generators[j])
            coarser = (refines[j] >> i) & 1 == 1
            if smaller != coarser:
                raise ValueError("refinement order is not dual to the cone "
                                 "at (%s, %s)" % (alg.names[generators[i]],
                                                  alg.names[generators[j]]))
    return ConLattice(congruences, generators, refines)


def quotient(alg, theta):
    """Algebra on the classes of theta; operations induced classwise."""
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
    out = FiniteInRL(names, cls_of[alg.one], neg, join, fusion)
    rep = validate(out)
    if not rep.ok:
        raise ValueError("quotient fails axiom %r" % rep.failures()[0][0])
    return out
