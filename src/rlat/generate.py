"""Stock algebras: finite Boolean algebras and the glued chain family.

build_an(n) folds n+1 four-element Boolean blocks and a final two-element
block together with glue; the connecting maps alternate with the parity of
the level. The result has 4n+6 elements and is generated by x_0 alone, so
the family witnesses that one generator does not bound the size.
"""

from .core import FiniteInRL
from .gluing import GluingSpec, _glue

# The largest carrier the generators build. At this size `rlat gen an 254`
# (n = 1022) took 18 s and `rlat gen bool 10` 0.9 s on a 2-CPU machine with
# Python 3.11; build_an's cost grows as about n^3, so an(500) took 150 s.
SIZE_CAP = 1024


def boolean_algebra(k):
    """Boolean algebra on k atoms; fusion is meet, 2^k elements."""
    if k < 0:
        raise ValueError("atom count must be nonnegative")
    n = 1 << k
    if n > SIZE_CAP:
        raise ValueError("size %d exceeds cap %d" % (n, SIZE_CAP))
    full = n - 1

    def name(m):
        if m == full:
            return "1"
        if m == 0:
            return "0"
        if m & (m - 1) == 0:
            return "a%d" % (m.bit_length() - 1)
        return "e%d" % m

    names = [name(m) for m in range(n)]
    neg = [full ^ m for m in range(n)]
    join = [[x | y for y in range(n)] for x in range(n)]
    fusion = [[x & y for y in range(n)] for x in range(n)]
    return FiniteInRL(names, full, neg, join, fusion)


def _block(i):
    """Four-element Boolean block with level-i names; bit 0 is x_i."""
    names = ["0_%d" % i, "x_%d" % i, "-x_%d" % i, "1_%d" % i]
    neg = [3, 2, 1, 0]
    join = [[x | y for y in range(4)] for x in range(4)]
    fusion = [[x & y for y in range(4)] for x in range(4)]
    return FiniteInRL(names, 3, neg, join, fusion)


def build_an(n):
    """Left-associated glued chain of n+1 blocks plus a final two-element top."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if 4 * n + 6 > SIZE_CAP:
        raise ValueError("size %d exceeds cap %d" % (4 * n + 6, SIZE_CAP))
    cur = _block(0)
    for i in range(n):
        nxt = _block(i + 1)
        if i % 2 == 0:
            a = cur.element("x_%d" % i)
            b = nxt.element("-x_%d" % (i + 1))
        else:
            a = cur.element("-x_%d" % i)
            b = nxt.element("x_%d" % (i + 1))
        phi = {cur.one: b, a: nxt.element("0_%d" % (i + 1))}
        cur = _glue(GluingSpec(cur, nxt, a, b, phi))
    two = boolean_algebra(1)
    a = cur.one
    b = two.element("0")
    cur = _glue(GluingSpec(cur, two, a, b, {a: b}))
    return cur
