"""Finite algebras in the involutive residuated lattice signature.

An algebra is stored as the signature (join, fusion, neg, 1) over elements
0..n-1; meet, residual and 0 are term-derived and never supplied. Order
relations are kept as int bitmasks: bit y of row x is set iff x R y.
"""

from collections import Counter
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import and_, eq, getitem, itemgetter, ne


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements):
    m = 0
    for x in elements:
        m |= 1 << x
    return m


class Report:
    """Named check verdicts, each with the first failing tuple if any."""

    def __init__(self):
        self.checks = []

    def add(self, name, ok, witness=None):
        self.checks.append((name, bool(ok), None if ok else witness))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, witness) for name, ok, witness in self.checks if not ok]

    def witness(self, name):
        for check_name, _, witness in self.checks:
            if check_name == name:
                return witness
        raise KeyError(name)

    def lines(self, names=None):
        out = []
        for name, ok, witness in self.checks:
            if ok:
                out.append("%s: pass" % name)
            elif witness is None:
                out.append("%s: FAIL" % name)
            else:
                shown = tuple(names[w] if names else w for w in witness)
                out.append("%s: FAIL at (%s)" % (name, ", ".join(map(str, shown))))
        return out


AXIOM_NAMES = (
    "join commutative",
    "join associative",
    "join idempotent",
    "fusion commutative",
    "fusion associative",
    "fusion unit",
    "fusion idempotent",
    "involution",
    "residuation",
    "fusion distributes over join",
)


class FiniteInRL:
    """Finite algebra (names, one, neg, join, fusion); immutable once built.

    Structural well-formedness (shapes, int ids in range, distinct names) is
    enforced here and raises ValueError; the equational axioms are checked
    separately by validate().
    """

    def __init__(self, names, one, neg, join, fusion):
        self.names = list(names)
        self.n = len(self.names)
        n = self.n
        if n < 1:
            raise ValueError("empty carrier")
        if len(set(self.names)) != n:
            raise ValueError("duplicate element names")
        if not all(isinstance(t, str) and t and not t.isspace() for t in self.names):
            raise ValueError("element names must be nonempty tokens")
        carrier = set(range(n))
        if one not in carrier:
            raise ValueError("unit out of range")
        self.one = one
        self.neg = list(neg)
        if len(self.neg) != n or not set(self.neg) <= carrier:
            raise ValueError("neg must map all %d elements into range" % n)
        self.join = [list(row) for row in join]
        self.fusion = [list(row) for row in fusion]
        for label, table in (("join", self.join), ("fusion", self.fusion)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError("%s table is not %dx%d" % (label, n, n))
            if not set(chain.from_iterable(table)) <= carrier:
                raise ValueError("%s table entry out of range" % label)
        # ids in range sum to an int unless one is a float, Fraction, ...
        ids = chain(self.neg, *self.join, *self.fusion)
        if type(sum(ids, one)) is not int:
            raise ValueError("element ids must be ints")
        self.index = {name: i for i, name in enumerate(self.names)}

    def __eq__(self, other):
        if not isinstance(other, FiniteInRL):
            return NotImplemented
        return (self.names == other.names and self.one == other.one
                and self.neg == other.neg and self.join == other.join
                and self.fusion == other.fusion)

    def __repr__(self):
        return "FiniteInRL(n=%d, one=%s)" % (self.n, self.names[self.one])

    def element(self, name):
        if name not in self.index:
            raise ValueError("unknown element %r" % name)
        return self.index[name]

    @cached_property
    def zero(self):
        return self.neg[self.one]

    def leq(self, x, y):
        return self.join[x][y] == y

    def mleq(self, x, y):
        return self.fusion[x][y] == x

    @cached_property
    def lat_up(self):
        # row x: elements above x in the lattice order, {y : x v y = y}
        return _eq_masks(self.join, repeat(range(self.n)))

    @cached_property
    def lat_dn(self):
        return _transpose(self.lat_up)

    @cached_property
    def mon_up(self):
        # row x: elements above x in the monoidal order (x.y = x)
        return _absorbed_masks(self.fusion)

    @cached_property
    def mon_dn(self):
        return _transpose(self.mon_up)

    @cached_property
    def meet(self):
        # De Morgan: x ^ y = neg(neg x v neg y)
        neg = self.neg
        return [list(map(neg.__getitem__, map(row.__getitem__, neg)))
                for row in map(self.join.__getitem__, neg)]

    @cached_property
    def imp(self):
        # residual: x -> y = neg(neg(y) . x), column x of fusion read at neg y
        neg = self.neg
        return [list(map(neg.__getitem__, map(col.__getitem__, neg)))
                for col in zip(*self.fusion)]

    @cached_property
    def pos_cone(self):
        return self.lat_up[self.one]

    @cached_property
    def neg_cone(self):
        return self.lat_dn[self.one]

    @cached_property
    def lat_covers(self):
        return _covers(self.lat_up)

    @cached_property
    def mon_covers(self):
        return _covers(self.mon_up)

    def block_bounds(self, x):
        """Bottom and top of the Boolean interval containing x."""
        return self.fusion[x][self.neg[x]], self.join[x][self.neg[x]]


def _eq_masks(rows, probes):
    """Row x: the mask of {y : rows[x][y] == probes[x][y]}."""
    pow2 = [1 << y for y in range(len(rows))]
    return tuple(sum(compress(pow2, map(eq, row, probe)))
                 for row, probe in zip(rows, probes))


def _absorbed_masks(table):
    """Row x: the mask of {y : x op y = x}, the up-set of x when op is a meet."""
    return _eq_masks(table, map(repeat, range(len(table))))


def _bit_strings(masks, n):
    """Each mask as n characters '0'/'1', character y for bit y."""
    fmt = "0%db" % n
    return [format(m, fmt)[::-1] for m in masks]


def _transpose(rows):
    """Column y: the mask of {x : bit y of rows[x] is set}."""
    cols = zip(*_bit_strings(rows, len(rows)))   # column y: bit y by row
    return tuple(int("".join(col)[::-1], 2) for col in cols)


def _covers(up):
    """Cover pairs (x, y) of the preorder given by up-set masks."""
    out = []
    for x, row in enumerate(up):
        strict = above = row & ~(1 << x)
        for z in bits(strict):
            # some z with x < z < y disqualifies the pair
            above &= ~(up[z] & ~(1 << z))
        out.extend((x, y) for y in bits(above))
    return tuple(out)


def validate(alg):
    """Check every defining axiom; returns a Report.

    The first failing tuple (by element index, scanned lexicographically) is
    recorded per axiom. All checks passing certifies membership in the class.
    Each check compares whole rows inside operator and itertools code: the
    interpreter loops over rows, never over tuples, and searches cell by
    cell only the first row that differs, so the witness is the first
    failing tuple. Associativity is decided by O(n^2) bitmask checks and
    distributivity follows from the other nine axioms; their O(n^3) row
    scans run only to name the witness of a failure, so the report is the
    one a plain lexicographic scan would give.
    """
    n = alg.n
    jn, fu, ng = alg.join, alg.fusion, alg.neg
    rng = range(n)
    rep = Report()

    def first_idempotence_failure(t):
        x = _first_ne(map(getitem, t, rng), rng)
        return None if x is None else (x,)

    # with commutativity, {y : x v y = y} is the lattice up-set of x
    comm = _first_difference(jn, map(list, zip(*jn)))
    idem = first_idempotence_failure(jn)
    semilattice = (comm is None and idem is None
                   and _is_semilattice(jn, alg.lat_up))
    w = None if semilattice else _first_associativity_failure(jn)
    rep.add("join commutative", comm is None, comm)
    rep.add("join associative", w is None, w)
    rep.add("join idempotent", idem is None, idem)

    # with commutativity, {y : x.y = y} is the monoidal down-set of x
    comm = _first_difference(fu, map(list, zip(*fu)))
    idem = first_idempotence_failure(fu)
    semilattice = (comm is None and idem is None
                   and _is_semilattice(fu, alg.mon_dn))
    w = None if semilattice else _first_associativity_failure(fu)
    rep.add("fusion commutative", comm is None, comm)
    rep.add("fusion associative", w is None, w)
    x = _first_ne(fu[alg.one], rng)
    rep.add("fusion unit", x is None, (x,))
    rep.add("fusion idempotent", idem is None, idem)

    x = _first_ne(map(ng.__getitem__, ng), rng)
    rep.add("involution", x is None, (x,))

    # x <= neg y  iff  x.y <= 0  iff  y <= neg x, as rows over y of '0'/'1'
    # read from the join fixed points: bit v of lat_up[u], and bit u of
    # lat_dn[v], is whether u v v = v. On one element each read gives a
    # character, not a tuple, and the three still compare equal.
    up, dn = _bit_strings(alg.lat_up, n), _bit_strings(alg.lat_dn, n)
    below_zero = dn[alg.zero]
    read_neg, read_all = itemgetter(*ng), itemgetter(*rng)
    w = None
    for x, (row_up, row_fu) in enumerate(zip(up, fu)):
        lhs = read_neg(row_up)
        prod = itemgetter(*row_fu)(below_zero)
        rhs = read_all(dn[ng[x]])
        if not lhs == prod == rhs:
            w = (x, next(y for y in rng
                         if not lhs[y] == prod[y] == rhs[y]))
            break
    rep.add("residuation", w is None, w)

    if rep.ok:
        # The nine axioms above imply distributivity. Join is a semilattice
        # operation, so <= is a partial order with joins. Residuation reads
        # u <= neg v  iff  u.v <= 0; with involution, associativity and
        # commutativity of fusion, for all x, y, z:
        #   x.y <= z  iff  (x.y).neg z <= 0  iff  y.(x.neg z) <= 0
        #             iff  y <= neg(x.neg z).
        # So x._ is left adjoint to z |-> neg(x.neg z), and a left adjoint
        # keeps every join: x.(y v z) <= u iff y v z <= neg(x.neg u) iff
        # x.y <= u and x.z <= u iff x.y v x.z <= u, for every u.
        w = None
    else:
        # the one algebra of size 1 passes every axiom, so never gets here
        w = _first_distributivity_failure(fu, jn, rng, rng)
    rep.add("fusion distributes over join", w is None, w)
    return rep


def _first_ne(values, expected):
    """The first index where two sequences differ, or None."""
    return next(compress(count(), map(ne, values, expected)), None)


def _first_difference(rows, others):
    """The first (x, y) with rows[x][y] != others[x][y], or None. Rows are
    compared whole; only the first pair that differs is searched by cell."""
    for x, (row, other) in enumerate(zip(rows, others)):
        if row != other:
            return x, _first_ne(row, other)
    return None


def _first_flat_difference(rows, others, xs, ys):
    """_first_difference over rows that flatten ys x ys per x in xs, as the
    triple (x, y, z)."""
    w = _first_difference(rows, others)
    return w and (xs[w[0]], *map(ys.__getitem__, divmod(w[1], len(ys))))


def _first_distributivity_failure(op, jn, xs, ys):
    """The first (x, y, z) over xs, ys, ys, in scan order, with
    op[x][jn[y][z]] != jn[op[x][y]][op[x][z]], or None.

    Row x over (y, z): op[x] read at the joins jn[y][z] against the rows
    jn[op[x][y]] read at op[x][z], each read in C. An itemgetter of one
    index returns an item, not a tuple, so one y is read as two.
    """
    if not ys:
        return None
    if len(ys) == 1:
        ys = (*ys, *ys)
    read_ys = itemgetter(*ys)
    read_jn = itemgetter(*chain.from_iterable(map(read_ys, read_ys(jn))))
    rows = list(map(op.__getitem__, xs))
    return _first_flat_difference(
        map(read_jn, rows),
        (tuple(chain.from_iterable(
            map(itemgetter(*row), map(jn.__getitem__, row))))
         for row in map(read_ys, rows)), xs, ys)


def _first_associativity_failure(t):
    """The first (x, y, z) with t[t[x][y]][z] != t[x][t[y][z]], or None.

    Row x over (y, z): the rows t[t[x][y]] against t[x] read through t.
    The one table of size 1 is a semilattice and never gets here, so the
    itemgetter has two or more indexes and returns a tuple.
    """
    read_t = itemgetter(*chain.from_iterable(t))
    rng = range(len(t))
    return _first_flat_difference(
        (tuple(chain.from_iterable(map(t.__getitem__, row))) for row in t),
        map(read_t, t), rng, rng)


class Rejected(ValueError):
    """A failed check: the Report it made and the object it was made on."""

    def __init__(self, message, report, subject):
        super().__init__(message)
        self.report, self.subject = report, subject


def check_member(alg, label="algebra"):
    """Raise Rejected naming the first axiom alg fails, if any.

    Public entry points call this once on the algebras they receive; what
    they build from a member is a member by the paper's theorems and is not
    checked again.
    """
    rep = validate(alg)
    if not rep.ok:
        raise Rejected("%s fails axiom %r" % (label, rep.failures()[0][0]),
                       rep, alg)


def _is_semilattice(table, up):
    """Whether a commutative idempotent table is associative, in O(n^2).

    up[x] is the mask of {y : x op y = y}. The table is associative exactly
    when x op y is the least upper bound in the relation up describes, that
    is up[x op y] == up[x] & up[y] for all x <= y (by index): this makes the
    relation a partial order, and least upper bounds are associative.
    """
    return all(list(map(up.__getitem__, row[x + 1:]))
               == list(map(and_, repeat(ux), up[x + 1:]))
               for x, (ux, row) in enumerate(zip(up, table)))


def _fingerprints(alg):
    """Per-element isomorphism invariants, each counted along one table row
    in C: the sizes of the lattice up- and down-sets and of the monoidal up-
    and down-sets, the size of the Boolean block (the elements sharing the
    block bounds x.neg x and x v neg x), and whether x is the unit or fixed
    by neg. Any value computed from the tables alone is an invariant, so
    none of them needs the order masks."""
    jn, fu, ng, rng = alg.join, alg.fusion, alg.neg, range(alg.n)
    bounds = list(zip(map(getitem, fu, ng), map(getitem, jn, ng)))
    block = Counter(bounds)
    return list(zip(
        [sum(map(eq, row, rng)) for row in jn],    # {y : x v y = y}
        map(list.count, jn, rng),                  # {y : x v y = x}
        map(list.count, fu, rng),                  # {y : x.y = x}
        [sum(map(eq, row, rng)) for row in fu],    # {y : x.y = y}
        map(block.__getitem__, bounds),
        map(alg.one.__eq__, rng),
        map(eq, ng, rng)))


def _preserves(a, b, m):
    """Whether the bijection m: a -> b maps a's unit, neg, join and fusion
    to b's. Whole rows are compared: m read along row x of a's table against
    row m[x] of b's table read at m."""
    read_m = itemgetter(*m)
    if m[a.one] != b.one or itemgetter(*a.neg)(m) != read_m(b.neg):
        return False
    return all(itemgetter(*row)(m) == read_m(tb[u])
               for ta, tb in ((a.join, b.join), (a.fusion, b.fusion))
               for row, u in zip(ta, m))


def find_isomorphism(a, b):
    """A signature-preserving bijection a -> b as a list, or None.

    Each element's invariants (cone and block sizes, unit and fixed-point
    flags) are counted along table rows, without the order masks. When they
    single out every element the map is forced, and it is checked and
    returned or refused; otherwise a backtracking search tries the elements
    of each invariant class, checking each placement against the elements
    already mapped along table rows. Every map returned has been checked
    whole, row by row.
    """
    fa, fb = _fingerprints(a), _fingerprints(b)
    if sorted(fa) != sorted(fb):     # also when the sizes differ
        return None
    classes = {}                 # invariants -> the elements of b with them
    for u, f in enumerate(fb):
        classes.setdefault(f, []).append(u)
    cands = list(map(classes.__getitem__, fa))
    if len(classes) == b.n:      # every class is a singleton: m is forced
        m = list(chain.from_iterable(cands))
        return m if _preserves(a, b, m) else None
    order = sorted(range(a.n), key=lambda x: len(cands[x]))  # ties by id
    m, seen = [-1] * a.n, [-1] * a.n     # seen[z] = z once z is mapped
    minv = [-1] * b.n

    def consistent(x, u, placed):
        # z in a and w in b, as z = neg x and w = neg u, or z = x op y and
        # w = u op m[y] for each y in placed, the mapped elements (x among
        # them), have m[z] = w, that is minv[w] = z, or are both unmapped,
        # minv[w] = -1 = seen[z]; the rows of x and u are read in C up to
        # the first mismatch. On commutative tables a row is also the
        # column; on others the final check of the map still decides.
        if minv[b.neg[u]] != seen[a.neg[x]]:
            return False
        vs = list(map(m.__getitem__, placed))
        for ta, tb in ((a.join, b.join), (a.fusion, b.fusion)):
            want = map(minv.__getitem__, map(tb[u].__getitem__, vs))
            have = map(seen.__getitem__, map(ta[x].__getitem__, placed))
            if not all(map(eq, want, have)):
                return False
        return True

    # one candidate iterator per depth; order[:depth] are mapped or being
    # mapped, in order
    tries = [iter(cands[order[0]])]
    while tries:
        depth = len(tries)
        x = order[depth - 1]
        if m[x] != -1:                   # x is mapped: unmap it first
            minv[m[x]] = -1
            m[x] = seen[x] = -1
        for u in tries[-1]:
            if minv[u] == -1:
                break
        else:                            # no candidate left: back up
            tries.pop()
            continue
        m[x], minv[u], seen[x] = u, x, x
        if not consistent(x, u, order[:depth]):
            continue
        if depth < a.n:
            tries.append(iter(cands[order[depth]]))
        elif _preserves(a, b, m):
            return m
    return None
