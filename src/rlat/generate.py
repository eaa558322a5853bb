"""Stock algebras: finite Boolean algebras and the glued chain family.

build_an(n) folds n+1 four-element Boolean blocks and a final two-element
block together with glue; the connecting maps alternate with the parity of
the level. The result has 4n+6 elements and is generated by x_0 alone, so
the family witnesses that one generator does not bound the size.
"""

from .core import FiniteInRL, int_arg

# The largest carrier the generators build; memory bounds it, not time. On a
# 2-CPU machine with Python 3.11, each in a fresh process, `rlat gen an 254`
# (n = 1022) took 0.6 s at 70 MB peak RSS (47 MB to build the algebra
# without writing it), `gen bool 10` 0.5 s at 110 MB (91 MB) and
# `gen bool 11`, with the cap raised, 1.9 s at 432 MB. `rlat check` of the
# output, which parses a row at a time, took 0.7-0.9 s at 70 MB (an 254)
# and 0.7-0.8 s at 66 MB (bool 10); holding every line's tokens at once,
# it took 0.9-1.1 s at 203 and 194 MB.
SIZE_CAP = 1024


def boolean_algebra(k):
    """Boolean algebra on k atoms; fusion is meet, 2^k elements."""
    if int_arg(k, "atom count") < 0:
        raise ValueError("atom count must be nonnegative")
    # 2^k > SIZE_CAP exactly when k >= SIZE_CAP.bit_length(); neither 2^k
    # nor k is built or printed, since either may have too many digits
    if k >= SIZE_CAP.bit_length():
        raise ValueError("size 2^k exceeds cap %d for k > %d"
                         % (SIZE_CAP, SIZE_CAP.bit_length() - 1))
    n = 1 << k
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


_FOUR = boolean_algebra(2)   # the tables of every block, built once


def _block(i):
    """Four-element Boolean block with level-i names; bit 0 is x_i."""
    return FiniteInRL(["0_%d" % i, "x_%d" % i, "-x_%d" % i, "1_%d" % i],
                      _FOUR.one, _FOUR.neg, _FOUR.join, _FOUR.fusion)


def build_an(n):
    """Left-associated glued chain of n+1 blocks plus a final two-element top."""
    if int_arg(n, "index") < 0:
        raise ValueError("index must be nonnegative")
    if 4 * n + 6 > SIZE_CAP:
        raise ValueError("size 4n+6 exceeds cap %d for n > %d"
                         % (SIZE_CAP, (SIZE_CAP - 6) // 4))
    # loaded here, so that boolean_algebra does not compile gluing
    from .gluing import Leaf, Node, _glue_tree
    tree = Leaf(_block(0))
    for i in range(n):
        a, b = ("x_%d", "-x_%d") if i % 2 == 0 else ("-x_%d", "x_%d")
        a, b = a % i, b % (i + 1)
        pairs = (("1_%d" % i, b), (a, "0_%d" % (i + 1)))
        tree = Node(None, None, a, b, pairs, tree, Leaf(_block(i + 1)))
    top = "1_%d" % n
    return _glue_tree(Node(None, None, top, "0", ((top, "0"),), tree,
                           Leaf(boolean_algebra(1))), None)
