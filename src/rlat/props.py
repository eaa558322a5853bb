"""Decision procedures: distributive semilattice, distributive lattice,
semilinearity. Each verdict carries the least counterexample when it fails.
Also the subalgebra generated by a set of elements.
"""

from collections import namedtuple
from operator import or_

from .core import check_member, element_id, mask_of
from .kernel import (_first_join_failure, _is_mask_homomorphism,
                     _join_irreducibles, _rows_of)


class PropertyVerdict(namedtuple("PropertyVerdict", "holds witness",
                                 defaults=(None,))):
    __slots__ = ()


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
    x |-> J(x) embeds it in a lattice of sets. The bottom, counted among
    them, is in every J(x) and leaves this unchanged. This is decided by
    O(n^2) mask operations; on a failure the first failing meet row is
    found by testing it at the join-irreducibles only, and only that row
    is scanned to name the first failing (x, y, z).
    """
    check_member(alg)
    dn, jn = alg.lat_dn, alg.join
    irreducible = mask_of(_join_irreducibles(dn))
    below = [d & irreducible for d in dn]
    if _is_mask_homomorphism(jn, below, or_):
        return PropertyVerdict(True)
    return PropertyVerdict(False, _first_join_failure(
        _rows_of(alg.meet), alg._rows[0], dn))


def is_semilinear(alg):
    """((x -> y) ^ 1) v ((y -> x) ^ 1) = 1 for all pairs; raises ValueError
    on a non-member."""
    check_member(alg)
    one, rng = alg.one, range(alg.n)
    mt, jn, imp = alg.meet, alg.join, alg.imp
    w = next(((x, y) for x in rng for y in rng
              if jn[mt[imp[x][y]][one]][mt[imp[y][x]][one]] != one), None)
    return PropertyVerdict(w is None, w)


def subalgebra_generated(alg, seeds):
    """Least subset containing seeds and 1, closed under join, fusion, neg;
    raises ValueError on a seed that is no element id."""
    closed = frontier = {element_id(x, alg.n) for x in seeds} | {alg.one}
    while frontier:
        # what neg, join and fusion give from the last round's elements
        fresh = {alg.neg[x] for x in frontier}
        fresh.update(t[x][y] for t in (alg.join, alg.fusion)
                     for x in closed for y in frontier)
        frontier = fresh - closed
        closed |= frontier
    return closed
