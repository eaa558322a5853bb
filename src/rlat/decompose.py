"""Invert gluing: split a non-Boolean member at an atom of its positive cone.

For an atom c there is a unique c* in the positive cone whose monoidal up-set
complements the monoidal down-set of c inside the cone. The down-set of c
(with unit c) and the up-set of neg(c*) (with the original unit) are the two
gluing factors, and the connecting map is term-defined from c and c*.
Both keep the operations of the algebra and change only the unit, so a part
of a decomposition tree is the input on an id set, with its masks ANDed.
"""

from collections import namedtuple

from .core import _image, bits, check_member, element_id
from .gluing import GluingSpec, Leaf, Node, _glue_tree


class SplitResult(namedtuple("SplitResult", "c c_star lower upper spec")):
    __slots__ = ()


def find_atoms(alg):
    """Elements of the positive cone covering the unit in the lattice order;
    raises ValueError if alg is not a member."""
    check_member(alg)
    return _atoms(alg, (1 << alg.n) - 1, alg.one)


def _atoms(alg, ids, one):
    """The atoms of the part of alg on the id mask ids with unit one."""
    above = alg.lat_up[one] & ids & ~(1 << one)
    return [c for c in bits(above) if not above & alg.lat_dn[c] & ~(1 << c)]


def _restrict(alg, ids, one):
    """Subalgebra on the id mask ids with the given unit; names carry over."""
    ids = list(bits(ids))
    return _image(alg, ids, {g: i for i, g in enumerate(ids)}, one)


def split(alg, c):
    """Split a member at atom c; raises ValueError on a non-member, a c that
    is no element id or a non-atom."""
    check_member(alg)
    whole = (1 << alg.n) - 1
    if element_id(c, alg.n) not in _atoms(alg, whole, alg.one):
        raise ValueError("%s is not an atom of the positive cone"
                         % alg.names[c])
    c_star, lower_ids, upper_ids, a, b, phi = _split(alg, whole, alg.one, c)
    lower = _restrict(alg, lower_ids, c)
    upper = _restrict(alg, upper_ids, alg.one)
    lo, up, names = lower.index, upper.index, alg.names
    spec = GluingSpec(lower, upper, lo[names[a]], up[names[b]],
                      {lo[names[x]]: up[names[y]] for x, y in phi})
    return SplitResult(c, c_star, lower, upper, spec)


def _split(alg, ids, one, c):
    """Split the part of a member on the id mask ids with unit one at its
    atom c: c*, the id masks of the two factors, a, b and phi as (x, phi x)
    pairs by x, in alg's ids. The factors are members and the spec is valid
    by the decomposition theorem, so neither is checked."""
    mon_up, mon_dn = alg.mon_up, alg.mon_dn
    pos = alg.lat_up[one] & ids
    low_cone = pos & mon_dn[c]
    c_star = next(cs for cs in bits(pos)
                  if (low_cone | (pos & mon_up[cs])) == pos
                  and not (low_cone & mon_up[cs]))
    ng, join = alg.neg, alg.join
    neg_cs = ng[c_star]
    lower = mon_dn[c] & ids
    a = alg.fusion[c][neg_cs]

    def phi(x):
        # (x ^ neg a) v neg c*, the meet read by De Morgan as neg(neg x v a)
        return join[ng[join[ng[x]][a]]][neg_cs]

    return (c_star, lower, mon_up[neg_cs] & ids, a, phi(c),
            [(x, phi(x)) for x in bits(mon_up[a] & lower)])


def decompose(alg):
    """Recursive splitting down to Boolean leaves; atoms chosen by least id.

    Raises ValueError if alg is not a member. An atomless member is its own
    leaf; every other leaf is one restriction of alg.
    """
    check_member(alg)
    # parts are split root first from a stack; the tree is built backwards
    names, whole = alg.names, (1 << alg.n) - 1
    order, todo = [], [(whole, alg.one)]
    while todo:                  # a part, then its lower and upper parts
        ids, one = todo.pop()
        atoms = _atoms(alg, ids, one)
        if not atoms:
            order.append(Leaf(alg if ids == whole
                              else _restrict(alg, ids, one)))
            continue
        c = atoms[0]
        c_star, lower, upper, a, b, phi = _split(alg, ids, one, c)
        order.append((names[c], names[c_star], names[a], names[b],
                      tuple((names[x], names[y]) for x, y in phi)))
        todo += ((upper, one), (lower, c))
    built = []                   # the built parts; the last is a lower one
    for part in reversed(order):
        built.append(part if isinstance(part, Leaf)
                     else Node(*part, built.pop(), built.pop()))
    return built[0]


def reassemble(tree):
    """Glue the tree back together; inverse of decompose up to isomorphism.

    Every leaf must be a member and every node's names must resolve in its
    reassembled factors to a spec that passes validate_gluing; raises
    ValueError (a Rejected from the failing part) otherwise.
    """
    return _glue_tree(tree, {})
