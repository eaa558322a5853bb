"""Decision procedures: distributive semilattice, distributive lattice,
semilinearity. Each verdict carries the least counterexample when it fails.
Also the elementary consequences of the axioms, checked exhaustively, and
the subalgebra generated by a set of elements.
"""

from collections import namedtuple
from itertools import repeat
from operator import or_

from .core import Report, _first_distributivity_failure, bits, check_member


class PropertyVerdict(namedtuple("PropertyVerdict", "holds witness",
                                 defaults=(None,))):
    __slots__ = ()


def is_distributive_semilattice(alg):
    """Distributivity of the monoidal semilattice of a member: it holds, by
    the paper's last theorem (the fusion reduct of every finite member is a
    distributive semilattice). Raises ValueError on a non-member."""
    check_member(alg)
    return PropertyVerdict(True)


def is_lattice_distributive(alg):
    """Meet distributes over join in the lattice order of a member; raises
    ValueError on a non-member.

    A finite lattice is distributive exactly when J(x v y) = J(x) | J(y)
    for all x, y, where J(x) is the set of join-irreducibles below x: then
    x |-> J(x) embeds it in a lattice of sets. An element is
    join-irreducible when its strict down-set is the down-set of one
    element, its one lower cover. This is decided by O(n^2) mask operations;
    the triple scan runs only to name the first failing (x, y, z).
    """
    check_member(alg)
    dn, jn, rng = alg.lat_dn, alg.join, range(alg.n)
    principal = set(dn)
    irreducible = sum(1 << x for x, d in enumerate(dn)
                      if d & ~(1 << x) in principal)
    below = [d & irreducible for d in dn]
    if all(list(map(below.__getitem__, row[x + 1:]))
           == list(map(or_, repeat(bx), below[x + 1:]))
           for x, (bx, row) in enumerate(zip(below, jn))):
        return PropertyVerdict(True)
    return PropertyVerdict(False, _first_distributivity_failure(
        alg.meet, jn, rng, rng))


def is_semilinear(alg):
    """((x -> y) ^ 1) v ((y -> x) ^ 1) = 1 for all pairs; raises ValueError
    on a non-member."""
    check_member(alg)
    one, rng = alg.one, range(alg.n)
    mt, jn, imp = alg.meet, alg.join, alg.imp
    w = next(((x, y) for x in rng for y in rng
              if jn[mt[imp[x][y]][one]][mt[imp[y][x]][one]] != one), None)
    return PropertyVerdict(w is None, w)


def elementary_properties(alg):
    """The seven elementary consequences, checked exhaustively."""
    n = alg.n
    rep = Report()
    mt, jn, fu, ng = alg.meet, alg.join, alg.fusion, alg.neg

    up, dn = alg.lat_up, alg.lat_dn
    w = next(((x, y) for x in range(n) for y in bits(up[x])
              if not (up[ng[y]] >> ng[x]) & 1), None)
    rep.add("negation antitone", w is None, w)

    def infimum(x, y):
        # meet(x, y) is a common lower bound above every common lower bound
        common, m = dn[x] & dn[y], mt[x][y]
        return (common >> m) & 1 and not common & ~dn[m]

    w = next(((x, y) for x in range(n) for y in range(n)
              if not infimum(x, y)), None)
    rep.add("meet is the lattice infimum", w is None, w)

    w = next(((x, y) for x in range(n) for y in range(n)
              if ng[jn[x][y]] != mt[ng[x]][ng[y]]
              or ng[mt[x][y]] != jn[ng[x]][ng[y]]), None)
    rep.add("De Morgan", w is None, w)

    w = next(((x, y) for x in range(n) for y in range(n)
              if not (alg.leq(mt[x][y], fu[x][y]) and alg.leq(fu[x][y], jn[x][y]))),
             None)
    rep.add("fusion between meet and join", w is None, w)

    pos = list(bits(alg.pos_cone))
    w = next(((x, y) for x in pos for y in pos if fu[x][y] != jn[x][y]), None)
    rep.add("fusion is join on the positive cone", w is None, w)

    neg_els = list(bits(alg.neg_cone))
    w = next(((x, y) for x in neg_els for y in neg_els if fu[x][y] != mt[x][y]), None)
    rep.add("fusion is meet on the negative cone", w is None, w)

    consts_ok = (alg.zero == ng[alg.one] and ng[alg.zero] == alg.one
                 and alg.leq(alg.zero, alg.one))
    rep.add("constants 0 = neg 1 <= 1 = neg 0", consts_ok, (alg.one,))
    return rep


def subalgebra_generated(alg, seeds):
    """Least subset containing seeds and 1, closed under join, fusion, neg;
    raises ValueError on a seed outside the carrier."""
    closed = frontier = set(seeds) | {alg.one}
    outside = closed.difference(range(alg.n))
    if outside:
        raise ValueError("no element has id %r" % min(outside))
    while frontier:
        # what neg, join and fusion give from the last round's elements
        fresh = {alg.neg[x] for x in frontier}
        fresh.update(t[x][y] for t in (alg.join, alg.fusion)
                     for x in closed for y in frontier)
        frontier = fresh - closed
        closed |= frontier
    return closed
