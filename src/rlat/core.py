"""Finite algebras in the involutive residuated lattice signature.

An algebra is stored as the signature (join, fusion, neg, 1) over elements
0..n-1; meet, residual and 0 are term-derived and never supplied. Order
relations are kept as int bitmasks: bit y of row x is set iff x R y.
"""

from collections import Counter
from functools import cached_property
from itertools import chain
from operator import and_, eq, getitem, itemgetter

from .kernel import (_columns, _first_asymmetry, _first_associativity_failure,
                     _first_distributivity_failure, _first_join_failure,
                     _first_ne, _is_mask_homomorphism, _masks, _order,
                     _read_cells, _rows_of)


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


def is_id(x, ids):
    """Whether x is an element id among ids (the ids, or n for range(n)):
    an int in them, bools included, never a float or a name."""
    return isinstance(x, int) and x in (
        range(ids) if isinstance(ids, int) else ids)


def element_id(x, ids):
    """x, if is_id(x, ids); raises ValueError naming x otherwise."""
    if not is_id(x, ids):
        raise ValueError("no element has id %r" % (x,))
    return x


def int_arg(x, what):
    """x, if it is an int (bools included, as in is_id); raises ValueError
    naming what and x otherwise."""
    if not isinstance(x, int):
        raise ValueError("%s must be an int, not %r" % (what, x))
    return x


def _ids(ids):
    # the set of the ids; an unhashable id, such as a list, is no int
    try:
        return set(ids)
    except TypeError:
        raise ValueError("element ids must be ints") from None


class FiniteInRL:
    """Finite algebra (names, one, neg, join, fusion); immutable once built.

    The constructor takes its input from outside: it copies names, neg and
    every row of join and fusion, and checks the structure, raising
    ValueError: n >= 1 distinct single-token names, one and every neg and
    table entry an int id in range, n ids in neg and n rows of n ids in
    each table. FiniteInRL._of takes the tables rlat builds itself, or has
    parsed and checked line by line, as given. The equational axioms are
    checked separately by validate(). What is built on an algebra is kept:
    its masks, its name index and its membership record (check_member).
    """
    _member = False    # set by _as_member; check_member then skips validate

    def __init__(self, names, one, neg, join, fusion):
        self.names = list(names)
        self.n = len(self.names)
        n = self.n
        if n < 1:
            raise ValueError("empty carrier")
        if not all(isinstance(t, str) and t.split() == [t] for t in self.names):
            raise ValueError("element names must be nonempty tokens")
        if len(set(self.names)) != n:
            raise ValueError("duplicate element names")
        carrier = set(range(n))
        if not _ids((one,)) <= carrier:
            raise ValueError("unit out of range")
        self.one = one
        try:
            self.neg = list(neg)
            self.join = [list(row) for row in join]
            self.fusion = [list(row) for row in fusion]
        except TypeError:
            raise ValueError("neg must be a sequence of ids and join and "
                             "fusion sequences of rows") from None
        if len(self.neg) != n or not _ids(self.neg) <= carrier:
            raise ValueError("neg must map all %d elements into range" % n)
        for label, table in (("join", self.join), ("fusion", self.fusion)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError("%s table is not %dx%d" % (label, n, n))
            if not _ids(chain.from_iterable(table)) <= carrier:
                raise ValueError("%s table entry out of range" % label)
        # ids in range sum to an int unless one is a float, Fraction, ...
        ids = chain(self.neg, *self.join, *self.fusion)
        if type(sum(ids, one)) is not int:
            raise ValueError("element ids must be ints")

    def _as_member(self):
        self._member = True
        return self

    @classmethod
    def _of(cls, names, one, neg, join, fusion):
        """The algebra of lists that no one else holds and that already have
        the structure the constructor checks; they are kept, not copied or
        checked."""
        alg = cls.__new__(cls)
        alg.names, alg.one, alg.neg = names, one, neg
        alg.join, alg.fusion, alg.n = join, fusion, len(names)
        return alg

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

    # built on first read; only the name lookups read index
    index = cached_property(lambda self: dict(zip(self.names, range(self.n))))
    zero = cached_property(lambda self: self.neg[self.one])

    def leq(self, x, y):
        return self.join[element_id(x, self.n)][element_id(y, self.n)] == y

    def mleq(self, x, y):
        return self.fusion[element_id(x, self.n)][element_id(y, self.n)] == x

    @cached_property
    def _rows(self):
        # join and fusion as the kernels read them, made once per algebra
        return _rows_of(self.join), _rows_of(self.fusion)

    @cached_property
    def _lat(self):
        # verdict (x, y): x <= y in the lattice order, x v y = y
        return _order(self._rows[0], False)

    # each mask is built the first time it is read
    lat_up = cached_property(lambda self: _masks(self._lat, self.n, True))
    lat_dn = cached_property(lambda self: _masks(self._lat, self.n, False))

    @cached_property
    def _mon(self):
        # verdict (x, y): x <= y in the monoidal order, x.y = x
        return _order(self._rows[1], True)

    mon_up = cached_property(lambda self: _masks(self._mon, self.n, True))
    mon_dn = cached_property(lambda self: _masks(self._mon, self.n, False))

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
    def neg_cone(self):
        return self.lat_dn[self.one]


def _image(alg, reps, label, one):
    """alg read at the ids reps, names kept, with unit label[one] and every
    value relabelled by label, a map from alg's ids onto range(len(reps))."""
    join, fusion = ([[label[row[s]] for s in reps]
                     for row in map(table.__getitem__, reps)]
                    for table in (alg.join, alg.fusion))
    return FiniteInRL._of([alg.names[r] for r in reps], label[one],
                          [label[alg.neg[r]] for r in reps], join,
                          fusion)._as_member()


def validate(alg):
    """Check every defining axiom; returns a Report.

    The first failing tuple (by element index, scanned lexicographically) is
    recorded per axiom. All checks passing certifies membership in the class.
    Each check compares whole rows, or whole n*n bytes, in C: the
    interpreter loops over rows, never over tuples, and searches cell by
    cell only the first row that differs, so the witness is the first
    failing tuple. Up to 256 elements every id fits in a byte: join and
    fusion are read once per algebra as bytes, commutativity compares each
    table's n*n bytes with their transpose, the order verdicts are one XOR
    and one translate, residuation compares three n*n bytes of verdicts,
    and each row of a witness scan is a translate and a join of rows.
    Above 256 commutativity compares the rows with the columns as lists,
    and the scans read the lists by itemgetter (_gather). Associativity is
    decided by O(n^2) bitmask checks, one itemgetter read of the masks per
    row, and distributivity follows from the other nine axioms. Of the
    order masks only the join's up-sets and the fusion's down-sets are
    built, and the join's down-sets only when join is a semilattice and
    some axiom fails. When some axiom fails, associativity's O(n^3) row
    scan runs to name its witness. Distributivity's is named by testing
    each fusion row against the join only at the join-irreducible
    elements, O(n |J|) per row, and scanning in full only the first row
    that fails; when join is not a semilattice the O(n^3) scan runs
    instead. The report is the one a plain lexicographic scan would give.
    """
    n = alg.n
    jn, fu, ng = alg.join, alg.fusion, alg.neg
    jr, fr = alg._rows
    rng = range(n)
    rep = Report()

    def first_idempotence_failure(t):
        x = _first_ne(map(getitem, t, rng), rng)
        return None if x is None else (x,)

    # with commutativity, {y : x v y = y} is the lattice up-set of x
    comm = _first_asymmetry(jr)
    idem = first_idempotence_failure(jn)
    join_ok = (comm is None and idem is None
               and _is_mask_homomorphism(jn, alg.lat_up, and_))
    w = None if join_ok else _first_associativity_failure(jr)
    rep.add("join commutative", comm is None, comm)
    rep.add("join associative", w is None, w)
    rep.add("join idempotent", idem is None, idem)

    # with commutativity, {y : x.y = y} is the monoidal down-set of x
    comm = _first_asymmetry(fr)
    idem = first_idempotence_failure(fu)
    semilattice = (comm is None and idem is None
                   and _is_mask_homomorphism(fu, alg.mon_dn, and_))
    w = None if semilattice else _first_associativity_failure(fr)
    rep.add("fusion commutative", comm is None, comm)
    rep.add("fusion associative", w is None, w)
    x = _first_ne(fu[alg.one], rng)
    rep.add("fusion unit", x is None, (x,))
    rep.add("fusion idempotent", idem is None, idem)

    x = _first_ne(map(ng.__getitem__, ng), rng)
    rep.add("involution", x is None, (x,))

    # x <= neg y  iff  x.y <= 0  iff  y <= neg x, each as n*n bytes of the
    # join's verdicts, (x, y) at x*n + y: the columns at neg, whose row x is
    # verdict (y, neg x), their transpose, verdict (x, neg y), and the
    # column of 0 read through fusion, verdict (x.y, 0)
    flat = alg._lat
    rhs = _columns(flat, ng, n)
    lhs = _columns(rhs, rng, n)
    prod = _read_cells(fr, flat[alg.zero::n])
    w = None if lhs == prod == rhs else divmod(
        _first_ne(zip(lhs, prod), zip(prod, rhs)), n)
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
    elif join_ok:
        w = _first_join_failure(fr, jr, alg.lat_dn)
    else:
        # the one algebra of size 1 passes every axiom, so never gets here
        w = _first_distributivity_failure(fr, jr, rng)
    rep.add("fusion distributes over join", w is None, w)
    return rep


class Rejected(ValueError):
    """A failed check: the Report it made and the object it was made on."""

    def __init__(self, message, report, subject):
        super().__init__(message)
        self.report, self.subject = report, subject


def check_member(alg, label="algebra"):
    """Raise Rejected naming the first axiom alg fails, if any.

    Public entry points call this on the algebras they receive. Each
    FiniteInRL is checked once: a pass is recorded on it, as it is on each
    member rlat builds by the paper's theorems. validate keeps no record.
    """
    if getattr(alg, "_member", False):
        return
    rep = validate(alg)
    if not rep.ok:
        raise Rejected("%s fails axiom %r" % (label, rep.failures()[0][0]),
                       rep, alg)
    if isinstance(alg, FiniteInRL):      # a duck-typed algebra records none
        alg._as_member()


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
