"""Boolean interval blocks and the skeleton of block bottoms.

Every element x sits in the interval between x.neg(x) and x v neg(x) taken in
the monoidal order; these intervals are Boolean algebras and partition the
carrier. The block bottoms form a distributive sublattice with maximum 0,
dually isomorphic to the positive cone.
"""

from collections import namedtuple
from itertools import chain, compress, repeat, takewhile
from operator import eq, getitem, itemgetter

from .core import (Report, _first_distributivity_failure, _first_ne, bits,
                   check_member)


class BooleanBlock(namedtuple("BooleanBlock", "bottom top elements")):
    """elements: the sorted element ids."""
    __slots__ = ()


class Partition(namedtuple("Partition", "blocks block_of skeleton")):
    """blocks: BooleanBlock, sorted by bottom id; block_of: element id ->
    index into blocks; skeleton: the block bottoms, sorted by id."""
    __slots__ = ()


def block(alg, x):
    """The Boolean block containing x.

    The bottom is computed both as meet(x, neg x) and as fusion(x, neg x);
    a mismatch means the input tables are corrupted. The meet is the one
    cell neg(neg x v neg neg x) of De Morgan's formula, not a row of the
    meet table. Raises ValueError on an id outside the carrier.
    """
    if x not in range(alg.n):
        raise ValueError("no element has id %r" % (x,))
    ng = alg.neg
    nx = ng[x]
    bottom = ng[alg.join[nx][ng[nx]]]
    if alg.fusion[x][nx] != bottom:
        raise ValueError(
            "block bottom cross-check failed at %s: meet and fusion disagree"
            % alg.names[x])
    top = alg.join[x][nx]
    members = alg.mon_up[bottom] & alg.mon_dn[top]
    return BooleanBlock(bottom, top, tuple(bits(members)))


def partition(alg):
    """Group the carrier into its Boolean blocks.

    Raises ValueError if alg is not a member; on a member the blocks
    partition the carrier by the block theorem, so each block is built
    once, from its bottom x.neg x, and every element goes to the block of
    its own bottom.
    """
    check_member(alg)
    bottoms = list(map(getitem, alg.fusion, alg.neg))
    skeleton = tuple(sorted(set(bottoms)))
    index = {b: i for i, b in enumerate(skeleton)}
    return Partition([block(alg, b) for b in skeleton],
                     list(map(index.__getitem__, bottoms)), skeleton)


def _boolean_block_failure(alg, b):
    """The first witness that block b is not a Boolean algebra, or None."""
    jn, fu, mt, ng = alg.join, alg.fusion, alg.meet, alg.neg
    if ng[b.bottom] != b.top or not (alg.leq(b.bottom, alg.zero)
                                     and alg.leq(alg.one, b.top)):
        return (b.bottom,)
    els = b.elements
    inside = set(els)
    for x in els:
        if ng[x] not in inside:
            return (x,)
        for y in els:
            # closed under join and fusion; inside a block the two orders
            # agree and fusion is the meet
            if (jn[x][y] not in inside or fu[x][y] not in inside
                    or alg.mleq(x, y) != alg.leq(x, y)
                    or fu[x][y] != mt[x][y]):
                return (x, y)
    # x and neg x are complements, then distributivity at x, for each x:
    # distributivity is scanned at the elements before the first failure
    i = next((i for i, x in enumerate(els)
              if fu[x][ng[x]] != b.bottom or jn[x][ng[x]] != b.top), None)
    w = _first_distributivity_failure(mt, jn, els[:i], els)
    return w or (None if i is None else (els[i],))


def verify_partition(alg, p):
    """Check the block and skeleton laws on a computed partition.

    When block_of names no block of p for some element, or a block holds,
    as an element, bottom or top, an id outside the carrier, the first
    clause fails with the first such element or id as witness, and the
    report ends there: every later law reads the tables at these ids. In
    the same way a skeleton id outside the carrier fails "skeleton is the
    down-set of zero" with that id as witness and ends the report.
    """
    rep = Report()
    rng = range(alg.n)
    jn, fu, mt, ng = alg.join, alg.fusion, alg.meet, alg.neg

    ids = range(len(p.blocks))
    w = next(((x,) for x in rng
              if x >= len(p.block_of) or p.block_of[x] not in ids), None) \
        or next(((x,) for b in p.blocks
                 for x in chain((b.bottom, b.top), b.elements)
                 if x not in rng), None)
    covered = sorted(x for b in p.blocks for x in b.elements)
    rep.add("blocks partition the carrier",
            w is None and covered == list(rng), w)
    if w:
        return rep

    w = next(filter(None, (_boolean_block_failure(alg, b)
                           for b in p.blocks)), None)
    rep.add("blocks are Boolean algebras", w is None, w)

    w = next(((y,) for b in p.blocks for y in b.elements
              if alg.imp[y][b.bottom] != ng[y]), None)
    rep.add("negation is residuation into the block bottom", w is None, w)

    bottom_of = [p.blocks[p.block_of[x]].bottom for x in rng]
    top_of = [p.blocks[p.block_of[x]].top for x in rng]
    w = next(((y,) for x in rng
              for y in bits(alg.mon_up[bottom_of[x]] & alg.mon_dn[top_of[x]])
              if bottom_of[y] != bottom_of[x]), None)
    rep.add("block bottom is constant on the block", w is None, w)

    w = next(((x, y) for x in rng for y in rng
              if alg.mleq(x, y) and not alg.mleq(bottom_of[x], bottom_of[y])),
             None)
    rep.add("bottom map is monotone in the monoidal order", w is None, w)

    w = next(((x, y) for x in rng for y in rng
              if fu[bottom_of[x]][bottom_of[y]] != bottom_of[fu[x][y]]
              or fu[top_of[x]][top_of[y]] != top_of[fu[x][y]]), None)
    rep.add("bounds are multiplicative", w is None, w)

    skel = set(p.skeleton)
    w = next(((x,) for x in p.skeleton if x not in rng), None)
    rep.add("skeleton is the down-set of zero",
            w is None and skel == set(bits(alg.lat_dn[alg.zero])), w)
    if w:
        return rep

    w = (alg.zero,) if alg.zero not in skel else next(
        ((x, y) for x in p.skeleton for y in p.skeleton
         if jn[x][y] not in skel or mt[x][y] not in skel), None)
    rep.add("skeleton is a sublattice with maximum zero", w is None, w)

    w = _first_distributivity_failure(mt, jn, p.skeleton, p.skeleton)
    rep.add("skeleton is distributive", w is None, w)

    pos = list(bits(alg.pos_cone))
    dual_ok = (sorted(ng[q] for q in pos) == sorted(skel)
               and all((alg.leq(q, r)) == (alg.leq(ng[r], ng[q]))
                       for q in pos for r in pos))
    rep.add("skeleton is dual to the positive cone", dual_ok)
    rep.add("block count equals positive cone size",
            len(p.blocks) == len(pos))

    w = next(((x, y) for x in rng for y in rng
              if p.block_of[fu[x][y]] != p.block_of[fu[bottom_of[x]][y]]
              or p.block_of[ng[x]] != p.block_of[x]), None)
    rep.add("same-block relation respects fusion and negation", w is None, w)
    return rep


def join_incompatibility_witness(alg, p):
    """Least (x, y, z) with x, y in one block but z v x and z v y in
    different blocks, or None when the same-block relation respects join.

    An element past the end of block_of is in no block, so it shares one
    with no element, itself included.
    """
    bo, jn, n = p.block_of, alg.join, alg.n

    def column(x):
        # the blocks of z v x for each z up to the first z v x in no block,
        # then a new object: two columns differ at the shorter one's end,
        # which is n when both are whole
        return [*map(bo.__getitem__, takewhile(
            len(bo).__gt__, map(itemgetter(x), jn))), object()]

    for x in range(min(n, len(bo))):
        if bo.index(bo[x]) < x:
            continue
        # x is the least of its block, which respects join when every
        # column in it is x's up to the end
        cx = column(x)
        for y in compress(range(n), map(eq, bo, repeat(bo[x]))):
            z = _first_ne(cx, column(y))
            if z < n:
                return x, y, z
    return None
