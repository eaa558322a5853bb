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
one candidate lattice order (see _orders_for_fusion), and the full axiom
checker is the final filter.

Duplicates: each member found is compared by core.find_isomorphism with the
classes already found at its size. The fill tries every associative,
commutative fusion table with unit 0 under the shaped negation, so it meets
every shaped labelling of each member; the one a class keeps, the least by
join bytes then fusion bytes, is therefore that member's least shaped
relabelling, whichever labelling the search met first.
"""

from collections import namedtuple
from itertools import chain, combinations

from .core import FiniteInRL, bits, find_isomorphism, mask_of, validate

# the largest size `rlat enum` finishes in under a minute
SIZE_CAP = 7


class Corpus(namedtuple("Corpus", "max_size algebras counts")):
    __slots__ = ()


def enumerate_up_to_iso(max_size):
    if max_size < 1:
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
    cells = list(combinations(range(1, n), 2))
    fusion = [[None] * n for _ in range(n)]
    for x in range(n):
        fusion[x][x] = x
        fusion[0][x] = fusion[x][0] = x

    found = []                   # [key, member], one per class
    # pre[v]: the set cells (a, b), both orders, with a . b = v, leaving
    # out the unit's cells, whose triples always associate
    pre = [[]] + [[(x, x)] for x in range(1, n)]

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
        i, j = cells[idx]
        fi, fj = fusion[i], fusion[j]
        for v in range(n):
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
    # down-set of 0 is D = {x . neg(x)}; verify_partition's "skeleton is
    # the down-set of zero" checks this on the corpus.
    d = 0
    for x in range(n):
        d |= 1 << fusion[x][neg[x]]
    up = [mask_of(y for y in range(n) if (d >> fusion[x][neg[y]]) & 1)
          for x in range(n)]
    join = _join_table(n, up)
    if join is None:
        return
    # FiniteInRL copies the tables, so fusion stays free to refill
    alg = FiniteInRL(names, 0, neg, join, fusion)
    if not validate(alg).ok:
        return
    # The fill meets every shaped labelling of each member, so keeping the
    # least key in each class keeps that class's least shaped relabelling:
    # the same table whichever labelling the search reaches first.
    key = bytes(chain(*alg.join, *alg.fusion))
    for entry in found:
        if find_isomorphism(alg, entry[1]) is not None:
            if key < entry[0]:
                entry[:] = key, alg
            return
    found.append([key, alg])


def _join_table(n, up):
    """The join table of the reflexive relation up, or None unless up is a
    partial order with all joins."""
    # transitive when each up-set holds the up-sets of its elements, and
    # then antisymmetric when the up-sets are distinct
    if any(up[y] & ~row for row in up for y in bits(row)):
        return None
    least = {mask: z for z, mask in enumerate(up)}
    if len(least) < n:
        return None
    # the join of x and y is the element whose up-set is their common up-set
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            m = least.get(up[x] & up[y])
            if m is None:
                return None
            join[x][y] = join[y][x] = m
    return join
