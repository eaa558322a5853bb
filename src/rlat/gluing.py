"""Glue two algebras along a fusion- and join-preserving bijection.

The lower algebra A contributes an element a of its negative cone (not below
the lower zero), the upper algebra B an element b of its negative cone, and
phi maps the monoidal up-set of a onto the monoidal down-set of b. The glued
algebra stacks B's monoidal order on top of A's; its unit and zero are B's.
"""

from collections import abc, namedtuple

from .core import (FiniteInRL, Rejected, Report, check_member, element_id,
                   is_id)


class GluingSpec(namedtuple("GluingSpec", "lower upper a b phi")):
    """a is an element of lower and b of upper; phi maps lower ids to upper
    ids, on the domain {x | a mon<= x}."""
    __slots__ = ()


class DecompositionTree:
    """Leaf (one algebra) or Node (a gluing of two subtrees)."""
    __slots__ = ()

    def leaves(self):
        return (part for part in self._parts() if isinstance(part, Leaf))

    def _parts(self):
        """Every part, each node after its lower and upper subtrees."""
        order, todo = [], [self]
        while todo:              # node, then its upper and lower subtrees
            order.append(todo.pop())
            if isinstance(order[-1], Node):
                todo += (order[-1].lower, order[-1].upper)
        return order[::-1]


class Leaf(namedtuple("Leaf", "algebra"), DecompositionTree):
    __slots__ = ()


class Node(namedtuple("Node", "atom complement a b pairs lower upper"),
           DecompositionTree):
    """A gluing by element names, phi as (lower, upper) pairs; a split
    records its atom c, the lower unit, and c* too (else both are None)."""
    __slots__ = ()


class _Part(namedtuple("_Part", "join fusion neg names one lo n index")):
    """A factor as a part of tables: its rows, names and unit, and its name
    -> id map onto the ids lo..lo+n-1. validate_gluing and build_spec read
    no more of a FiniteInRL, which is then the part of its own tables."""
    element = FiniteInRL.element


def validate_gluing(spec):
    """Check every gluing ingredient; witnesses are element names."""
    A, B, a, b, phi = spec.lower, spec.upper, spec.a, spec.b, spec.phi
    ids_a, ids_b = set(A.index.values()), set(B.index.values())
    rep = Report()

    in_range = (is_id(a, ids_a) and is_id(b, ids_b)
                and isinstance(phi, abc.Mapping)
                and all(is_id(x, ids_a) and is_id(y, ids_b)
                        for x, y in phi.items()))
    rep.add("spec references elements of both carriers", in_range)
    if not in_range:
        return rep

    zero = A.neg[A.one]
    rep.add("a lies in the lower negative cone", A.join[a][A.one] == A.one,
            (A.names[a],))
    rep.add("a is not below the lower zero", A.join[a][zero] != zero,
            (A.names[a],))
    rep.add("b lies in the upper negative cone", B.join[b][B.one] == B.one,
            (B.names[b],))

    dom = {x for x in ids_a if A.fusion[a][x] == a}
    cod = {y for y in ids_b if B.fusion[y][b] == y}
    keys = sorted(phi)

    bad = sorted(dom.symmetric_difference(keys))
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

    for op, ta, tb in (("fusion", A.fusion, B.fusion),
                       ("join", A.join, B.join)):
        w = next(((A.names[x], A.names[y]) for x in keys for y in keys
                  if phi.get(ta[x][y]) != tb[phi[x]][phi[y]]), None)
        rep.add("phi preserves " + op, w is None, w)

    anchor = A.join[a][zero]
    ok = anchor in phi and phi[anchor] == B.fusion[b][B.neg[b]]
    rep.add("phi sends a join lower-zero to the block bottom of b", ok,
            (A.names[anchor],))
    return rep


def build_spec(spec_file, lower, upper):
    """Resolve the names a, b and pairs of a parsed spec file, or of a
    decomposition tree node, against its two algebras."""
    a = lower.element(spec_file.a)
    b = upper.element(spec_file.b)
    phi = {}
    for x, y in spec_file.pairs:
        key = lower.element(x)
        if key in phi:
            raise ValueError("phi maps %s twice" % x)
        phi[key] = upper.element(y)
    return GluingSpec(lower, upper, a, b, phi)


def glue(spec):
    """The glued algebra, the one-node tree of its spec, with the lower
    factor's ids first and then the upper's, shifted by lower.n. Raises
    ValueError on a phi that is no mapping or a, b or phi holding no element
    id, and Rejected (a ValueError) if a factor is not a member or the spec
    fails validate_gluing; the result is then a member by the gluing
    theorem and is not checked again."""
    A, B = spec.lower, spec.upper
    if not isinstance(spec.phi, abc.Mapping):
        raise ValueError("phi must be a mapping, not %r" % (spec.phi,))

    def name(alg, x):
        return alg.names[element_id(x, alg.n)]

    lower, upper = Leaf(A), Leaf(B)
    node = Node(None, None, name(A, spec.a), name(B, spec.b),
                tuple((name(A, x), name(B, y)) for x, y in spec.phi.items()),
                lower, upper)
    return _glue_tree(node, {id(lower): "lower factor",
                             id(upper): "upper factor"})


def _glue_tree(tree, labels):
    """The member glued from a tree of Leaf and Node in one table, ids in
    leaf order. A leaf fills its diagonal block; a node fills the cells
    between its two parts from their own cells, final by then, and primes
    its upper part's names taken below. Rejected names, by labels[id(part)],
    a leaf that is not a member or a node that fails validate_gluing; with
    labels None the caller built the tree from members and valid specs, and
    nothing is checked. The result is recorded a member."""
    order = tree._parts()
    n = sum(part.algebra.n for part in order if isinstance(part, Leaf))
    ids = list(range(n))         # each id one int object, in every cell
    names, neg = [None] * n, [0] * n
    join, fusion = ([[0] * n for _ in range(n)] for _ in range(2))
    done = []                    # the glued parts, in id order
    for part in order:
        if isinstance(part, Leaf):
            alg = part.algebra
            if labels is not None:
                check_member(alg, labels.get(id(part), "leaf"))
            lo = done[-1].lo + done[-1].n if done else 0
            hi = lo + alg.n
            shifted = ids[lo:hi]
            shift = shifted.__getitem__      # v -> lo + v
            names[lo:hi] = alg.names
            neg[lo:hi] = map(shift, alg.neg)
            for table, rows in ((join, alg.join), (fusion, alg.fusion)):
                for x, row in enumerate(rows, lo):
                    table[x][lo:hi] = map(shift, row)
            done.append(_Part(join, fusion, neg, names, shift(alg.one), lo,
                              alg.n, dict(zip(alg.names, shifted))))
            continue

        spec = build_spec(part, done.pop(-2), done.pop())
        if labels is not None:
            rep = validate_gluing(spec)
            if not rep.ok:
                raise Rejected("%s fails %r" % (
                    labels.get(id(part), "gluing spec"),
                    rep.failures()[0][0]), rep, part)
        A, B, a, b, phi = spec.lower, spec.upper, spec.a, spec.b, spec.phi
        lo, mid, hi = A.lo, B.lo, B.lo + B.n
        inv = {y: x for x, y in phi.items()}
        back = [inv[fusion[y][b]] for y in range(mid, hi)]
        na = neg[a]
        for x in range(lo, mid):
            fx, jx = fusion[x], join[x]
            fx[mid:hi] = [fx[u] for u in back]
            jx[mid:hi] = (join[phi[jx[a]]][mid:hi] if jx[na] == na
                          else [jx[u] for u in back])
        for table in (join, fusion):
            rows = table[lo:mid]
            for y in range(mid, hi):
                table[y][lo:mid] = [row[y] for row in rows]
        for y in range(mid, hi):
            while names[y] in A.index:
                names[y] += "'"
            A.index[names[y]] = y
        done.append(A._replace(one=B.one, n=A.n + B.n))
    return FiniteInRL._of(names, done[0].one, neg, join, fusion)._as_member()
