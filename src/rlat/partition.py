"""Boolean interval blocks and the skeleton of block bottoms.

Every element x sits in the interval between x.neg(x) and x v neg(x) taken in
the monoidal order; these intervals are Boolean algebras and partition the
carrier. The block bottoms form a distributive sublattice with maximum 0,
dually isomorphic to the positive cone.
"""

from collections import namedtuple
from itertools import compress, repeat, takewhile
from operator import eq, getitem, itemgetter

from .core import bits, check_member, element_id
from .kernel import _first_ne


class BooleanBlock(namedtuple("BooleanBlock", "bottom top elements")):
    """elements: the sorted element ids."""
    __slots__ = ()


class Partition(namedtuple("Partition", "blocks block_of skeleton")):
    """blocks: BooleanBlock, sorted by bottom id; block_of: element id ->
    index into blocks; skeleton: the block bottoms, sorted by id."""
    __slots__ = ()


def block(alg, x):
    """The Boolean block containing x; raises ValueError if alg is not a
    member or x is no element id. Each call checks alg, while partition
    checks once for all the blocks."""
    check_member(alg)
    x = element_id(x, alg.n)
    return _block(alg, alg.fusion[x][alg.neg[x]])


def _block(alg, bottom):
    """The block of a member with the given bottom x.neg x: its top is
    neg(bottom), the join x v neg x by De Morgan."""
    top = alg.neg[bottom]
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
    return Partition(list(map(_block, repeat(alg), skeleton)),
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
