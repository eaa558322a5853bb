"""Re-checks of the paper's theorems on what the library builds.

The library trusts the block theorem and the elementary consequences of the
axioms: `partition` builds each block from its bottom x . neg(x), and no
module of rlat checks a built result again. The tests re-check them here,
clause by clause, each failing clause with its first witness. Unlike
oracles.py these read rlat's Report, bits and the order masks that
FiniteInRL caches; distributivity is decided by a plain triple loop.
"""

from itertools import chain

from rlat.core import Report, bits


def block_bounds(alg, x):
    """Bottom and top of the Boolean interval containing x."""
    return alg.fusion[x][alg.neg[x]], alg.join[x][alg.neg[x]]


def scan_distributivity(op, jn, xs, ys, zs=None):
    """The first (x, y, z) over xs, ys, zs (zs defaults to ys) with
    op[x][jn[y][z]] != jn[op[x][y]][op[x][z]], by a plain triple loop."""
    zs = ys if zs is None else zs
    return next(((x, y, z) for x in xs for y in ys for z in zs
                 if op[x][jn[y][z]] != jn[op[x][y]][op[x][z]]), None)


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
    w = scan_distributivity(mt, jn, els[:i], els)
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

    w = scan_distributivity(mt, jn, p.skeleton, p.skeleton)
    rep.add("skeleton is distributive", w is None, w)

    pos = list(bits(alg.lat_up[alg.one]))
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

    pos = list(bits(alg.lat_up[alg.one]))
    w = next(((x, y) for x in pos for y in pos if fu[x][y] != jn[x][y]), None)
    rep.add("fusion is join on the positive cone", w is None, w)

    neg_els = list(bits(alg.neg_cone))
    w = next(((x, y) for x in neg_els for y in neg_els if fu[x][y] != mt[x][y]), None)
    rep.add("fusion is meet on the negative cone", w is None, w)

    consts_ok = (alg.zero == ng[alg.one] and ng[alg.zero] == alg.one
                 and alg.leq(alg.zero, alg.one))
    rep.add("constants 0 = neg 1 <= 1 = neg 0", consts_ok, (alg.one,))
    return rep
