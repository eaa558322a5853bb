"""Boolean interval blocks and the skeleton of block bottoms.

Every element x sits in the interval between x.neg(x) and x v neg(x) taken in
the monoidal order; these intervals are Boolean algebras and partition the
carrier. The block bottoms form a distributive sublattice with maximum 0,
dually isomorphic to the positive cone.
"""

from collections import namedtuple
from itertools import compress, repeat, takewhile
from operator import eq, getitem, itemgetter

from .core import _first_ne, bits, check_member, element_id


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
    meet table. Raises ValueError if x is no element id.
    """
    ng = alg.neg
    nx = ng[element_id(x, alg.n)]
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
