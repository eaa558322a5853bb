"""Enumerate all members of a given size up to isomorphism.

Shape normalization: the unit is element 0, and the involution is canonical.
A negation fixed point x forces x = 0 = 1 (its block collapses), so on an
odd carrier the unit is the unique fixed point and the rest pair up; on an
even carrier negation is fixed-point free with neg(0) = 1. Relabeling puts
the 2-cycles in consecutive positions, so exactly one shape per size exists
and every member has a shaped labelling.

Search: fusion tables are filled cell by cell. A new cell s . t = v can
decide only the triples that read it, so the fill keeps a preimage index,
pre[v] the set cells with product v, and tests just those triples: O(n)
plus the length of pre[t] per cell, not the O(n^2) triples through s and
t, and the same partial tables are pruned. Each complete fusion induces
one candidate order and its joins (see _orders_for_fusion); the full axiom
checker is the final filter, and the only check that it is transitive.

Antisymmetry prune: in a member x <= y iff x . neg(y) lies in D, the set
of block bottoms x . neg(x) (the proof is in _orders_for_fusion). So the
cells (x, neg x) are filled first; once they are set, D is fixed. A later
cell (i, j) then skips every value in D when the cell (neg j, neg i) is
already set and its value is in D too: in a member the two would say
i <= neg j and neg j <= i, so i = neg j, and only the first cells have
that form. Every member's fusion passes the prune, so the fill still meets
every shaped labelling of each member; it only stops building tables that
the order step would throw away (at sizes 1-7 the fill completes 391
tables, of which 187 reach validate, against 23,720 without the prune).

Duplicates: each member found is compared by core.find_isomorphism with the
classes already found at its size. The fill tries every associative,
commutative fusion table with unit 0 under the shaped negation that passes
the antisymmetry prune, so it meets every shaped labelling of each member;
the one a class keeps, the least by join bytes then fusion bytes, is
therefore that member's least shaped relabelling, whichever labelling the
search met first.
"""

from collections import namedtuple
from itertools import chain, combinations, compress, repeat
from operator import and_, getitem

from .core import FiniteInRL, find_isomorphism, int_arg, validate

# the largest size `rlat enum` finishes in under a minute
SIZE_CAP = 8


class Corpus(namedtuple("Corpus", "max_size algebras counts")):
    __slots__ = ()


def enumerate_up_to_iso(max_size):
    if int_arg(max_size, "size bound") < 1:
        raise ValueError("size bound must be positive")
    if max_size > SIZE_CAP:
        raise ValueError("size bound %d exceeds cap %d"
                         % (max_size, SIZE_CAP))
    algebras = []
    counts = {}
    for n in range(1, max_size + 1):
        found = _enumerate_size(n)
        counts[n] = len(found)
        algebras.extend(found)
    return Corpus(max_size, tuple(algebras), counts)


def _neg_shape(n):
    neg = list(range(n))
    for i in range(n % 2, n, 2):
        neg[i], neg[i + 1] = i + 1, i
    return neg


def _enumerate_size(n):
    names = ["e%d" % i for i in range(n)]
    neg = _neg_shape(n)
    # the cells (x, neg x) first: once they are set, D is fixed
    firsts = [(x, x + 1) for x in range(2 - n % 2, n, 2)]
    cells = firsts + [c for c in combinations(range(1, n), 2)
                      if c not in firsts]
    fusion = [[None] * n for _ in range(n)]
    for x in range(n):
        fusion[x][x] = x
        fusion[0][x] = fusion[x][0] = x

    found = []                   # [key, member], one per class
    # pre[v]: the set cells (a, b), both orders, with a . b = v, leaving
    # out the unit's cells, whose triples always associate
    pre = [[]] + [[(x, x)] for x in range(1, n)]
    d = set()                    # D = {x . neg(x)}, once firsts are set

    def consistent(s, t):
        # The triples that read the new cell s . t = v are (s, t, x),
        # (x, s, t), (a, b, t) with a . b = s and (s, b, c) with b . c = t.
        # By commutativity (x, s, t) and (a, b, t) associate iff their
        # reverses do, which are triples of the first and last kinds for
        # the cell t . s, so the caller's second call covers them.
        fs = fusion[s]
        v = fs[t]
        for tx, vx in zip(fusion[t], fusion[v]):
            if tx is not None and vx is not None:
                sx = fs[tx]
                if sx is not None and sx != vx:
                    return False
        for b, c in pre[t]:
            sb = fs[b]
            if sb is not None:
                sc = fusion[sb][c]
                if sc is not None and sc != v:
                    return False
        return True

    def fill(idx):
        if idx == len(cells):
            _orders_for_fusion(n, names, neg, fusion, found)
            return
        if idx == len(firsts):
            d.clear()
            d.update(map(getitem, fusion, neg))
        i, j = cells[idx]
        fi, fj = fusion[i], fusion[j]
        vs = range(n)
        # i . j in D says i <= neg j and neg j . neg i in D says
        # neg j <= i; both would make i = neg j, one of the firsts
        if fusion[neg[j]][neg[i]] in d:
            vs = [v for v in vs if v not in d]
        for v in vs:
            fi[j] = fj[i] = v
            at_v = pre[v]
            at_v += (i, j), (j, i)
            if consistent(i, j) and consistent(j, i):
                fill(idx + 1)
            del at_v[-2:]
        fi[j] = fj[i] = None

    fill(0)
    # fill refers to itself, so drop it: the tables it holds are then
    # freed on return, not at the next cyclic collection
    fill = None
    return [alg for _, alg in sorted(found)]


def _orders_for_fusion(n, names, neg, fusion, found):
    # The fusion fixes the order. In a member x <= y iff x . neg(y) <= 0,
    # and the elements below 0 are exactly the block bottoms x . neg(x):
    # if z <= 0 then 1 <= neg(z), so z <= z . neg(z) <= 0, and
    # z . neg(z) . neg(z) = z . neg(z) <= 0 gives z . neg(z) <= z. So the
    # down-set of 0 is D = {x . neg(x)}; the clause "skeleton is the
    # down-set of zero" of tests/theorems.py checks this on the corpus.
    d = set(map(getitem, fusion, neg))
    pow2 = [1 << y for y in range(n)]
    up = [sum(compress(pow2, map(d.__contains__, map(row.__getitem__, neg))))
          for row in fusion]
    # x v y has the up-set up[x] & up[y]. up is not checked to be an
    # order: when validate passes, up was the order, by the above, so
    # validate rejects every candidate whose up is not one. The fill's
    # antisymmetry prune leaves no two elements one up-set (none at sizes
    # 1-8), and a table that did would fail validate all the same.
    least = dict(zip(up, range(n)))
    join = [list(map(least.get, map(and_, repeat(ux), up))) for ux in up]
    if None in chain.from_iterable(join):
        return                   # some pair has no join
    # the fill refills fusion, and every candidate shares names and neg
    alg = FiniteInRL._of(names[:], 0, neg[:], join,
                         [row[:] for row in fusion])
    if not validate(alg).ok:
        return
    # The fill meets every shaped labelling of each member, so keeping the
    # least key in each class keeps that class's least shaped relabelling:
    # the same table whichever labelling the search reaches first.
    key = bytes(chain(*alg.join, *alg.fusion))
    for entry in found:
        if find_isomorphism(alg, entry[1]) is not None:
            if key < entry[0]:
                entry[:] = key, alg._as_member()
            return
    found.append([key, alg._as_member()])
