"""Boolean interval blocks and the skeleton of block bottoms.

Every element x sits in the interval between x.neg(x) and x v neg(x) taken in
the monoidal order; these intervals are Boolean algebras and partition the
carrier. The block bottoms form a distributive sublattice with maximum 0,
dually isomorphic to the positive cone.
"""

from collections import namedtuple

from .core import Report, bits, check_member


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
    meet table.
    """
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
    partition the carrier by the block theorem.
    """
    check_member(alg)
    by_bottom = {}
    block_of = [None] * alg.n
    for x in range(alg.n):
        b = block(alg, x)
        by_bottom.setdefault(b.bottom, b)
    blocks = [by_bottom[k] for k in sorted(by_bottom)]
    for i, b in enumerate(blocks):
        for y in b.elements:
            block_of[y] = i
    return Partition(blocks, block_of, tuple(sorted(by_bottom)))


def verify_partition(alg, p):
    """Check the block and skeleton laws on a computed partition."""
    rep = Report()
    n = alg.n
    jn, fu, mt, ng = alg.join, alg.fusion, alg.meet, alg.neg

    covered = sorted(x for b in p.blocks for x in b.elements)
    rep.add("blocks partition the carrier", covered == list(range(n)))

    w = None
    for b in p.blocks:
        els = set(b.elements)
        if ng[b.bottom] != b.top:
            w = (b.bottom,)
            break
        if not (alg.leq(b.bottom, alg.zero) and alg.leq(alg.one, b.top)):
            w = (b.bottom,)
            break
        for x in b.elements:
            if ng[x] not in els:
                w = (x,)
                break
            for y in b.elements:
                if jn[x][y] not in els or fu[x][y] not in els:
                    w = (x, y)
                    break
                # inside a block the two orders agree and fusion is the meet
                if alg.mleq(x, y) != alg.leq(x, y) or fu[x][y] != mt[x][y]:
                    w = (x, y)
                    break
            if w:
                break
        if w:
            break
        for x in b.elements:
            if fu[x][ng[x]] != b.bottom or jn[x][ng[x]] != b.top:
                w = (x,)
                break
            for y in b.elements:
                for z in b.elements:
                    if mt[x][jn[y][z]] != jn[mt[x][y]][mt[x][z]]:
                        w = (x, y, z)
                        break
                if w:
                    break
            if w:
                break
        if w:
            break
    rep.add("blocks are Boolean algebras", w is None, w)

    w = None
    for b in p.blocks:
        for y in b.elements:
            if alg.imp[y][b.bottom] != ng[y]:
                w = (y,)
                break
        if w:
            break
    rep.add("negation is residuation into the block bottom", w is None, w)

    bottom_of = [p.blocks[p.block_of[x]].bottom for x in range(n)]
    w = next(((y,) for x in range(n) for y in bits(
        alg.mon_up[bottom_of[x]] & alg.mon_dn[p.blocks[p.block_of[x]].top])
        if bottom_of[y] != bottom_of[x]), None)
    rep.add("block bottom is constant on the block", w is None, w)

    w = next(((x, y) for x in range(n) for y in range(n)
              if alg.mleq(x, y) and not alg.mleq(bottom_of[x], bottom_of[y])),
             None)
    rep.add("bottom map is monotone in the monoidal order", w is None, w)

    top_of = [p.blocks[p.block_of[x]].top for x in range(n)]
    w = next(((x, y) for x in range(n) for y in range(n)
              if fu[bottom_of[x]][bottom_of[y]] != bottom_of[fu[x][y]]
              or fu[top_of[x]][top_of[y]] != top_of[fu[x][y]]), None)
    rep.add("bounds are multiplicative", w is None, w)

    skel = set(p.skeleton)
    skel_is_downset = skel == set(bits(alg.lat_dn[alg.zero]))
    rep.add("skeleton is the down-set of zero", skel_is_downset)

    w = None
    if alg.zero not in skel:
        w = (alg.zero,)
    else:
        for x in p.skeleton:
            for y in p.skeleton:
                if jn[x][y] not in skel or mt[x][y] not in skel:
                    w = (x, y)
                    break
            if w:
                break
    rep.add("skeleton is a sublattice with maximum zero", w is None, w)

    w = next(((x, y, z)
              for x in p.skeleton for y in p.skeleton for z in p.skeleton
              if mt[x][jn[y][z]] != jn[mt[x][y]][mt[x][z]]), None)
    rep.add("skeleton is distributive", w is None, w)

    pos = list(bits(alg.pos_cone))
    dual_ok = (sorted(ng[q] for q in pos) == sorted(skel)
               and all((alg.leq(q, r)) == (alg.leq(ng[r], ng[q]))
                       for q in pos for r in pos))
    rep.add("skeleton is dual to the positive cone", dual_ok)
    rep.add("block count equals positive cone size",
            len(p.blocks) == len(pos))

    w = next(((x, y) for x in range(n) for y in range(n)
              if p.block_of[fu[x][y]] != p.block_of[fu[bottom_of[x]][y]]
              or p.block_of[ng[x]] != p.block_of[x]), None)
    rep.add("same-block relation respects fusion and negation", w is None, w)
    return rep


def join_incompatibility_witness(alg, p):
    """Least (x, y, z) with x, y in one block but z v x and z v y in
    different blocks, or None when the same-block relation respects join."""
    for x in range(alg.n):
        for y in range(alg.n):
            if p.block_of[x] != p.block_of[y]:
                continue
            for z in range(alg.n):
                if p.block_of[alg.join[z][x]] != p.block_of[alg.join[z][y]]:
                    return (x, y, z)
    return None
