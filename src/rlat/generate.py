"""Stock algebras: finite Boolean algebras and the glued chain family.

build_an(n) folds n+1 four-element Boolean blocks and a final two-element
block together with glue; the connecting maps alternate with the parity of
the level. The result has 4n+6 elements and is generated by x_0 alone, so
the family witnesses that one generator does not bound the size.
"""

from itertools import repeat
from operator import and_, or_

from .core import FiniteInRL, int_arg

# The largest carrier the generators build. On a 2-CPU machine with Python
# 3.11, in fresh processes (CPU time, peak RSS), `rlat gen an 254` (n = 1022)
# took 0.30 s at 30 MB and `gen bool 10` 0.26 s at 31 MB, since `gen` writes
# a line at a time; past the cap, `gen bool 11` took 1.1 s at 85 MB and `gen
# an 510` 1.4 s at 79 MB. `rlat check`, which parses a row at a time, took
# 0.6 s at 50-54 MB on either output (2.6 s at 169-179 MB past the cap), and
# on one cell and its mirror raised by one (seeds 1 and 2) 0.64-0.74 s (bool
# 10) but 9.8 and 60 s (an 254, join) and 7.0 and 42 s (fusion).
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

    # every cell is read from ids, so each id is one int object, not one
    # per cell: ints above 256 are not shared by the interpreter
    ids = list(range(n))
    join, fusion = ([list(map(ids.__getitem__, map(op, repeat(x), ids)))
                     for x in ids] for op in (or_, and_))
    return FiniteInRL._of(list(map(name, ids)), ids[full], ids[::-1], join,
                          fusion)._as_member()


_FOUR = boolean_algebra(2)   # the tables of every block, built once


def _block(i):
    """Four-element Boolean block with level-i names; bit 0 is x_i. It
    shares _FOUR's tables: a block is only ever a leaf that build_an glues,
    which reads them."""
    return FiniteInRL._of(["0_%d" % i, "x_%d" % i, "-x_%d" % i, "1_%d" % i],
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
