"""Glue two algebras along a fusion- and join-preserving bijection.

The lower algebra A contributes an element a of its negative cone (not below
the lower zero), the upper algebra B an element b of its negative cone, and
phi maps the monoidal up-set of a onto the monoidal down-set of b. The glued
algebra stacks B's monoidal order on top of A's; its unit and zero are B's.
"""

from dataclasses import dataclass

from .core import FiniteInRL, Report, bits, check_member


@dataclass
class GluingSpec:
    lower: FiniteInRL
    upper: FiniteInRL
    a: int        # element of lower
    b: int        # element of upper
    phi: dict     # lower id -> upper id, domain {x | a mon<= x}


@dataclass
class GluedAlgebra:
    result: FiniteInRL
    provenance: tuple   # glued id -> ("lower" | "upper", original id)


def validate_gluing(spec):
    """Check every gluing ingredient; witnesses are element names."""
    A, B, a, b, phi = spec.lower, spec.upper, spec.a, spec.b, spec.phi
    rep = Report()

    in_range = (0 <= a < A.n and 0 <= b < B.n
                and all(0 <= x < A.n and 0 <= y < B.n
                        for x, y in phi.items()))
    rep.add("spec references elements of both carriers", in_range)
    if not in_range:
        return rep

    rep.add("a lies in the lower negative cone", A.leq(a, A.one),
            (A.names[a],))
    rep.add("a is not below the lower zero", not A.leq(a, A.zero),
            (A.names[a],))
    rep.add("b lies in the upper negative cone", B.leq(b, B.one),
            (B.names[b],))

    dom = set(bits(A.mon_up[a]))
    cod = set(bits(B.mon_dn[b]))
    keys = set(phi)

    bad = sorted(keys ^ dom)
    rep.add("phi domain is the monoidal up-set of a", not bad,
            tuple(A.names[x] for x in bad))

    targets = sorted(phi[x] for x in keys)
    dup = next((y for i, y in enumerate(targets[1:]) if y == targets[i]), None)
    rep.add("phi is injective", dup is None,
            None if dup is None else (B.names[dup],))

    bad = sorted(set(targets) ^ cod)
    rep.add("phi image is the monoidal down-set of b", not bad,
            tuple(B.names[y] for y in bad))

    rep.add("phi sends the lower unit to b", phi.get(A.one) == b,
            (A.names[A.one],))

    wf = wj = None
    for x in sorted(keys):
        for y in sorted(keys):
            f, j = A.fusion[x][y], A.join[x][y]
            if wf is None and (f not in keys
                               or phi[f] != B.fusion[phi[x]][phi[y]]):
                wf = (A.names[x], A.names[y])
            if wj is None and (j not in keys
                               or phi[j] != B.join[phi[x]][phi[y]]):
                wj = (A.names[x], A.names[y])
    rep.add("phi preserves fusion", wf is None, wf)
    rep.add("phi preserves join", wj is None, wj)

    anchor = A.join[a][A.zero]
    ok = anchor in phi and phi[anchor] == B.block_bounds(b)[0]
    rep.add("phi sends a join lower-zero to the block bottom of b", ok,
            (A.names[anchor],))
    return rep


def glue(spec):
    """Construct the glued algebra; raises ValueError on bad ingredients.

    Both factors must be members and the spec must pass validate_gluing;
    the result is then a member by the gluing theorem and is not checked
    again.
    """
    check_member(spec.lower, "lower factor")
    check_member(spec.upper, "upper factor")
    check_ingredients(spec)
    nA, nB = spec.lower.n, spec.upper.n
    prov = tuple([("lower", x) for x in range(nA)]
                 + [("upper", y) for y in range(nB)])
    return GluedAlgebra(_glue(spec), prov)


def check_ingredients(spec):
    """Raise ValueError naming every check of validate_gluing that fails."""
    rep = validate_gluing(spec)
    if not rep.ok:
        raise ValueError("invalid gluing ingredients: "
                         + "; ".join(name for name, _ in rep.failures()))


def _glue(spec):
    """The glued algebra of a spec already known to be valid."""
    A, B = spec.lower, spec.upper
    a, b, phi = spec.a, spec.b, spec.phi
    phi_inv = {v: k for k, v in phi.items()}
    na = A.neg[a]
    nA, nB = A.n, B.n

    names = list(A.names)
    taken = set(names)
    for nm in B.names:
        while nm in taken:
            nm += "'"
        taken.add(nm)
        names.append(nm)

    neg = ([A.neg[x] for x in range(nA)]
           + [nA + B.neg[y] for y in range(nB)])
    join, fusion = _stack(A.join, B.join), _stack(A.fusion, B.fusion)
    for x in range(nA):
        for y in range(nB):
            f = A.fusion[x][phi_inv[B.fusion[y][b]]]
            fusion[x][nA + y] = fusion[nA + y][x] = f
            if A.leq(x, na):
                j = nA + B.join[phi[A.join[x][a]]][y]
            else:
                j = A.join[x][phi_inv[B.fusion[y][b]]]
            join[x][nA + y] = join[nA + y][x] = j

    return FiniteInRL(names, nA + B.one, neg, join, fusion)


def _stack(lower, upper):
    """A table with lower in its top left corner and upper, shifted past
    lower's ids, in its bottom right; the other cells are 0."""
    nA, nB = len(lower), len(upper)
    return ([row + [0] * nB for row in lower]
            + [[0] * nA + [nA + v for v in row] for row in upper])
