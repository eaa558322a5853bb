"""Decision procedures: distributive semilattice, distributive lattice,
semilinearity. Each verdict carries the least counterexample when it fails.
"""

from collections import namedtuple
from itertools import repeat
from operator import or_

from .core import (_absorbed_masks, _first_distributivity_failure,
                   _transpose, bits, check_member)


class PropertyVerdict(namedtuple("PropertyVerdict", "holds witness",
                                 defaults=(None,))):
    __slots__ = ()


def distributive_semilattice_table(meet):
    """Distributivity of the meet-semilattice given by an explicit table.

    Condition: whenever meet(x, y) is below z, some x' above x and y' above y
    satisfy meet(x', y') = z. Orders and bounds are read off the table alone.
    """
    n = len(meet)
    up = _absorbed_masks(meet)   # up[x]: the mask of {y : meet(x, y) = x}
    dn = _transpose(up)
    # factor[z][x]: targets y' completing some x' above x to meet(x',y') = z
    factor = [[0] * n for _ in range(n)]
    for xp in range(n):
        row, below = meet[xp], list(bits(dn[xp]))
        for yp in range(n):
            fz, bit = factor[row[yp]], 1 << yp
            for x in below:
                fz[x] |= bit
    for x in range(n):
        for y in range(n):
            for z in bits(up[meet[x][y]]):
                if not factor[z][x] & up[y]:
                    return PropertyVerdict(False, (x, y, z))
    return PropertyVerdict(True)


def is_distributive_semilattice(alg):
    """Distributivity of the monoidal semilattice of a member: it holds, by
    the paper's last theorem (the fusion reduct of every finite member is a
    distributive semilattice). Raises ValueError on a non-member."""
    check_member(alg)
    return PropertyVerdict(True)


def is_lattice_distributive(alg):
    """Meet distributes over join in the lattice order of a member; raises
    ValueError on a non-member.

    A finite lattice is distributive exactly when J(x v y) = J(x) | J(y)
    for all x, y, where J(x) is the set of join-irreducibles below x: then
    x |-> J(x) embeds it in a lattice of sets. An element is
    join-irreducible when its strict down-set is the down-set of one
    element, its one lower cover. This is decided by O(n^2) mask operations;
    the triple scan runs only to name the first failing (x, y, z).
    """
    check_member(alg)
    dn, jn = alg.lat_dn, alg.join
    principal = set(dn)
    irreducible = sum(1 << x for x, d in enumerate(dn)
                      if d & ~(1 << x) in principal)
    below = [d & irreducible for d in dn]
    if all(list(map(below.__getitem__, row[x + 1:]))
           == list(map(or_, repeat(bx), below[x + 1:]))
           for x, (bx, row) in enumerate(zip(below, jn))):
        return PropertyVerdict(True)
    return PropertyVerdict(False, _first_distributivity_failure(alg.meet, jn))


def is_semilinear(alg):
    """((x -> y) ^ 1) v ((y -> x) ^ 1) = 1 for all pairs; raises ValueError
    on a non-member."""
    check_member(alg)
    n = alg.n
    one = alg.one
    mt, jn, imp = alg.meet, alg.join, alg.imp
    for x in range(n):
        for y in range(n):
            lhs = jn[mt[imp[x][y]][one]][mt[imp[y][x]][one]]
            if lhs != one:
                return PropertyVerdict(False, (x, y))
    return PropertyVerdict(True)
