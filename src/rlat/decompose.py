"""Invert gluing: split a non-Boolean member at an atom of its positive cone.

For an atom c there is a unique c* in the positive cone whose monoidal up-set
complements the monoidal down-set of c inside the cone. The down-set of c
(with unit c) and the up-set of neg(c*) (with the original unit) are the two
gluing factors, and the connecting map is term-defined from c and c*.
"""

from dataclasses import dataclass

from .core import FiniteInRL, bits, check_member
from .gluing import GluingSpec, _glue, check_ingredients


@dataclass
class SplitResult:
    c: int
    c_star: int
    lower: FiniteInRL
    upper: FiniteInRL
    spec: GluingSpec


class DecompositionTree:
    """Leaf (one Boolean algebra) or Node (a SplitResult plus two subtrees)."""

    def leaves(self):
        if isinstance(self, Leaf):
            yield self
        else:
            yield from self.lower.leaves()
            yield from self.upper.leaves()


@dataclass
class Leaf(DecompositionTree):
    algebra: FiniteInRL


@dataclass
class Node(DecompositionTree):
    split: SplitResult
    lower: DecompositionTree
    upper: DecompositionTree


def find_atoms(alg):
    """Elements of the positive cone covering the unit in the lattice order."""
    one = alg.one
    out = []
    for c in bits(alg.pos_cone & ~(1 << one)):
        between = (alg.lat_up[one] & alg.lat_dn[c]
                   & ~(1 << one) & ~(1 << c))
        if not between:
            out.append(c)
    return out


def _restrict(alg, ids, one):
    """Subalgebra on ids (sorted) with the given unit; names carry over."""
    pos = {g: i for i, g in enumerate(ids)}
    names = [alg.names[g] for g in ids]
    neg = [pos[alg.neg[g]] for g in ids]
    join = [[pos[alg.join[x][y]] for y in ids] for x in ids]
    fusion = [[pos[alg.fusion[x][y]] for y in ids] for x in ids]
    return FiniteInRL(names, pos[one], neg, join, fusion)


def split(alg, c):
    """Split a member at atom c; raises ValueError on a non-member or a
    non-atom."""
    check_member(alg)
    if c not in find_atoms(alg):
        raise ValueError("%s is not an atom of the positive cone"
                         % alg.names[c])
    return _split(alg, c)


def _split(alg, c):
    """Split a member at an atom; the factors are members and the spec is
    valid by the decomposition theorem, so neither is checked again."""
    pos = alg.pos_cone
    low_cone = pos & alg.mon_dn[c]
    c_star = next(cs for cs in bits(pos)
                  if (low_cone | (pos & alg.mon_up[cs])) == pos
                  and not (low_cone & alg.mon_up[cs]))
    neg_cs = alg.neg[c_star]

    lower_ids = list(bits(alg.mon_dn[c]))
    upper_ids = list(bits(alg.mon_up[neg_cs]))
    lower = _restrict(alg, lower_ids, one=c)
    upper = _restrict(alg, upper_ids, one=alg.one)

    a_g = alg.fusion[c][neg_cs]
    na_g = alg.neg[a_g]
    b_g = alg.join[alg.meet[c][na_g]][neg_cs]
    lo_pos = {g: i for i, g in enumerate(lower_ids)}
    up_pos = {g: i for i, g in enumerate(upper_ids)}
    phi = {lo_pos[x]: up_pos[alg.join[alg.meet[x][na_g]][neg_cs]]
           for x in bits(alg.mon_up[a_g] & alg.mon_dn[c])}
    spec = GluingSpec(lower, upper, lo_pos[a_g], up_pos[b_g], phi)
    return SplitResult(c, c_star, lower, upper, spec)


def decompose(alg):
    """Recursive splitting down to Boolean leaves; atoms chosen by least id.

    Raises ValueError if alg is not a member.
    """
    check_member(alg)
    return _decompose(alg)


def _decompose(alg):
    atoms = find_atoms(alg)
    if not atoms:
        return Leaf(alg)
    s = _split(alg, atoms[0])
    return Node(s, _decompose(s.lower), _decompose(s.upper))


def reassemble(tree):
    """Fold glue over the tree; inverse of decompose up to isomorphism.

    Every leaf must be a member and every node's spec must pass
    validate_gluing once rebased onto its reassembled factors; raises
    ValueError otherwise.
    """
    if isinstance(tree, Leaf):
        check_member(tree.algebra, "leaf")
        return tree.algebra
    lower = reassemble(tree.lower)
    upper = reassemble(tree.upper)
    spec = _remap_spec(tree.split.spec, lower, upper)
    check_ingredients(spec)
    return _glue(spec)


def _remap_spec(spec, lower, upper):
    """Rebase a spec onto reassembled factors, matching elements by name."""
    old_lo, old_up = spec.lower, spec.upper
    a = lower.element(old_lo.names[spec.a])
    b = upper.element(old_up.names[spec.b])
    phi = {lower.element(old_lo.names[x]): upper.element(old_up.names[y])
           for x, y in spec.phi.items()}
    return GluingSpec(lower, upper, a, b, phi)
