"""Slow reference implementations used only by the tests.

Everything here recomputes results from raw operation tables with plain
loops: no pruning, no bitmask tricks, no reuse of the library's own search
or canonicalization. The point is disagreement detection, not speed; keep
carrier sizes small (enumeration <= 4, congruences <= 8).
"""

import itertools

from rlat import FiniteInRL


def satisfies_all_laws(one, neg, join, fusion):
    """Direct check of every defining law on raw tables."""
    n = len(neg)
    rng = range(n)
    for x in rng:
        if neg[neg[x]] != x:
            return False
        if join[x][x] != x or fusion[x][x] != x:
            return False
        if fusion[one][x] != x:
            return False
        for y in rng:
            if join[x][y] != join[y][x] or fusion[x][y] != fusion[y][x]:
                return False

    def leq(x, y):
        return join[x][y] == y

    for x in rng:
        for y in rng:
            for z in rng:
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    return False
                if fusion[fusion[x][y]][z] != fusion[x][fusion[y][z]]:
                    return False
                if fusion[x][join[y][z]] != join[fusion[x][y]][fusion[x][z]]:
                    return False
                # x.y <= z iff y <= neg(x . neg z), with the residual spelled
                # out through the involution
                if leq(fusion[x][y], z) != leq(y, neg[fusion[x][neg[z]]]):
                    return False
    return True


def scan_axioms(one, neg, join, fusion):
    """(name, ok, witness) per axiom, in the order of rlat.AXIOM_NAMES.

    Each law is scanned over its tuples in lexicographic order of element
    indexes; the witness is the first tuple where it fails, or None.
    """
    n = len(neg)
    rng = range(n)
    singles = [(x,) for x in rng]
    pairs = list(itertools.product(rng, repeat=2))
    triples = list(itertools.product(rng, repeat=3))
    zero = neg[one]

    def leq(x, y):
        return join[x][y] == y

    laws = (
        ("join commutative", pairs,
         lambda x, y: join[x][y] == join[y][x]),
        ("join associative", triples,
         lambda x, y, z: join[join[x][y]][z] == join[x][join[y][z]]),
        ("join idempotent", singles, lambda x: join[x][x] == x),
        ("fusion commutative", pairs,
         lambda x, y: fusion[x][y] == fusion[y][x]),
        ("fusion associative", triples,
         lambda x, y, z: fusion[fusion[x][y]][z] == fusion[x][fusion[y][z]]),
        ("fusion unit", singles, lambda x: fusion[one][x] == x),
        ("fusion idempotent", singles, lambda x: fusion[x][x] == x),
        ("involution", singles, lambda x: neg[neg[x]] == x),
        # x <= neg y  iff  x.y <= 0  iff  y <= neg x
        ("residuation", pairs,
         lambda x, y: (leq(x, neg[y]) == leq(fusion[x][y], zero)
                       == leq(y, neg[x]))),
        ("fusion distributes over join", triples,
         lambda x, y, z: (fusion[x][join[y][z]]
                          == join[fusion[x][y]][fusion[x][z]])),
    )
    out = []
    for name, tuples, law in laws:
        w = next((t for t in tuples if not law(*t)), None)
        out.append((name, w is None, w))
    return out


def negation_antitone_witness(join, neg):
    """First (x, y) with x <= y but not neg y <= neg x, or None."""
    n = len(neg)
    for x in range(n):
        for y in range(n):
            if join[x][y] == y and join[neg[y]][neg[x]] != neg[x]:
                return (x, y)
    return None


def meet_infimum_witness(join, meet):
    """First (x, y) where meet(x, y) is not the greatest lower bound of x
    and y in the order u <= v iff u v v = v, or None."""
    n = len(join)

    def leq(u, v):
        return join[u][v] == v

    for x in range(n):
        for y in range(n):
            m = meet[x][y]
            if not (leq(m, x) and leq(m, y)):
                return (x, y)
            for z in range(n):
                if leq(z, x) and leq(z, y) and not leq(z, m):
                    return (x, y)
    return None


def lattice_distributivity_witness(join):
    """First (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), or None. The
    meet is the greatest lower bound in the order u <= v iff u v v = v,
    found by search, so join must be a lattice's."""
    n = len(join)
    rng = range(n)

    def meet(x, y):
        lower = [z for z in rng if join[z][x] == x and join[z][y] == y]
        return next(z for z in lower if all(join[w][z] == z for w in lower))

    mt = [[meet(x, y) for y in rng] for x in rng]
    for x in rng:
        for y in rng:
            for z in rng:
                if mt[x][join[y][z]] != join[mt[x][y]][mt[x][z]]:
                    return (x, y, z)
    return None


def semilattice_distributivity_witness(meet):
    """First (x, y, z) with meet(x, y) <= z such that no x' >= x and
    y' >= y have meet(x', y') = z, or None; u <= v iff meet(u, v) = u."""
    n = len(meet)
    above = [[v for v in range(n) if meet[u][v] == u] for u in range(n)]
    for x in range(n):
        for y in range(n):
            m = meet[x][y]
            reached = set()
            for xp in above[x]:
                for yp in above[y]:
                    reached.add(meet[xp][yp])
            for z in range(n):
                if meet[m][z] == m and z not in reached:
                    return (x, y, z)
    return None


def naive_isomorphic(a, b):
    """Try every permutation; usable only for tiny carriers."""
    if a.n != b.n:
        return False
    rng = range(a.n)
    for p in itertools.permutations(rng):
        if p[a.one] != b.one:
            continue
        if any(p[a.neg[x]] != b.neg[p[x]] for x in rng):
            continue
        if all(p[a.join[x][y]] == b.join[p[x]][p[y]]
               and p[a.fusion[x][y]] == b.fusion[p[x]][p[y]]
               for x in rng for y in rng):
            return True
    return False


def _associative(table):
    n = len(table)
    rng = range(n)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in rng for y in rng for z in rng)


def associative_unit_zero_tables(n):
    """Every commutative, idempotent, associative table on range(n) with
    unit 0, as a tuple of rows: all n^((n-1)(n-2)/2) fillings of the
    cells i < j off the unit, kept by the triple loop."""
    rng = range(n)
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    out = set()
    for vals in itertools.product(rng, repeat=len(pairs)):
        table = [[None] * n for _ in rng]
        for x in rng:
            table[x][x] = table[0][x] = table[x][0] = x
        for (i, j), v in zip(pairs, vals):
            table[i][j] = table[j][i] = v
        if _associative(table):
            out.add(tuple(map(tuple, table)))
    return out


def _involutions(n):
    return [p for p in itertools.permutations(range(n))
            if all(p[p[i]] == i for i in range(n))]


def naive_enumerate(max_size):
    """All models up to isomorphism per size, by raw table search."""
    return {n: _models_of_size(n) for n in range(1, max_size + 1)}


def _models_of_size(n):
    rng = range(n)
    names = ["e%d" % i for i in rng]
    pairs = [(i, j) for i in rng for j in rng if i < j]
    invols = _involutions(n)
    models = []
    for vals in itertools.product(rng, repeat=len(pairs)):
        join = [[i for _ in rng] for i in rng]
        for (i, j), v in zip(pairs, vals):
            join[i][j] = join[j][i] = v
        if not _associative(join):
            continue
        for one in rng:
            free = [(i, j) for i, j in pairs if i != one and j != one]
            for fvals in itertools.product(rng, repeat=len(free)):
                fusion = [[0] * n for _ in rng]
                for i in rng:
                    fusion[i][i] = i
                    fusion[one][i] = fusion[i][one] = i
                for (i, j), v in zip(free, fvals):
                    fusion[i][j] = fusion[j][i] = v
                if not _associative(fusion):
                    continue
                for p in invols:
                    neg = list(p)
                    if not satisfies_all_laws(one, neg, join, fusion):
                        continue
                    alg = FiniteInRL(names, one, neg, join, fusion)
                    if not any(naive_isomorphic(alg, m) for m in models):
                        models.append(alg)
    return models


def set_partitions(n):
    """Every partition of range(n), as a class-index vector."""
    if n == 0:
        yield []
        return

    def extend(vec, used):
        i = len(vec)
        if i == n:
            yield list(vec)
            return
        for c in range(used + 1):
            vec.append(c)
            yield from extend(vec, max(used, c + 1))
            vec.pop()

    yield from extend([], 0)


def naive_congruences(alg):
    """All congruences by filtering every set partition for compatibility."""
    n = alg.n
    rng = range(n)
    found = []
    for cls in set_partitions(n):
        ok = True
        for x in rng:
            for y in rng:
                if cls[x] != cls[y]:
                    continue
                if cls[alg.neg[x]] != cls[alg.neg[y]]:
                    ok = False
                    break
                if any(cls[alg.join[x][z]] != cls[alg.join[y][z]]
                       or cls[alg.fusion[x][z]] != cls[alg.fusion[y][z]]
                       for z in rng):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(cls))
    return found


def naive_quotient(alg, cls_vec):
    """The algebra on the classes of a congruence, given as a class-index
    vector: classes ordered and named by their least elements, and each
    operation the class of its values on all members, which must agree."""
    n = alg.n
    classes = sorted([x for x in range(n) if cls_vec[x] == c]
                     for c in set(cls_vec))
    of = {x: i for i, cls in enumerate(classes) for x in cls}

    def induced(values):
        (v,) = set(values)
        return v

    def table(op):
        return [[induced(of[op[x][y]] for x in c for y in d)
                 for d in classes] for c in classes]

    return FiniteInRL([alg.names[c[0]] for c in classes], of[alg.one],
                      [induced(of[alg.neg[x]] for x in c) for c in classes],
                      table(alg.join), table(alg.fusion))


def scan_congruence(alg, rel):
    """The message of the first broken congruence property, or None.

    Element by element: reflexive, symmetric, transitive, then compatible
    with negation, join and fusion in the left argument.
    """
    n = alg.n
    for x in range(n):
        if not (rel[x] >> x) & 1:
            return "relation is not reflexive"
        for y in range(n):
            if not (rel[x] >> y) & 1:
                continue
            if not (rel[y] >> x) & 1:
                return "relation is not symmetric"
            if rel[x] | rel[y] != rel[x]:
                return "relation is not transitive"
            if alg.neg[x] != alg.neg[y] and not \
                    (rel[alg.neg[x]] >> alg.neg[y]) & 1:
                return "relation ignores negation"
            for z in range(n):
                if not (rel[alg.join[x][z]] >> alg.join[y][z]) & 1:
                    return "relation ignores join"
                if not (rel[alg.fusion[x][z]] >> alg.fusion[y][z]) & 1:
                    return "relation ignores fusion"
    return None


def relation_of(cls_vec):
    """Class-index vector -> bitmask rows: bit y of row x iff same class."""
    return tuple(sum(1 << y for y, d in enumerate(cls_vec) if d == c)
                 for c in cls_vec)


def classes_of(cls_vec):
    """Class-index vector -> frozenset of frozensets."""
    groups = {}
    for x, c in enumerate(cls_vec):
        groups.setdefault(c, set()).add(x)
    return frozenset(frozenset(g) for g in groups.values())


def glued_order_failures(glued, lower, upper, a, b, phi):
    """Pairs where the lattice order of a glued algebra departs from the
    gluing construction's four cases, as (case, x, y) with x, y ids in glued.

    Lower elements keep their ids and upper element y becomes len(lower) + y.
    The order is the lower order on lower pairs and the upper order on upper
    pairs; a lower x lies below an upper y iff x <= neg a and
    phi(x v a) <= y; an upper y lies below a lower x iff
    phi^-1(y . b) <= x and not x <= neg a.
    """
    def leq(alg, x, y):
        return alg.join[x][y] == y

    n_lo = lower.n
    na = lower.neg[a]
    phi_inv = {v: k for k, v in phi.items()}
    out = []
    for x in range(n_lo):
        for y in range(n_lo):
            if leq(glued, x, y) != leq(lower, x, y):
                out.append(("lower", x, y))
    for x in range(upper.n):
        for y in range(upper.n):
            if leq(glued, n_lo + x, n_lo + y) != leq(upper, x, y):
                out.append(("upper", n_lo + x, n_lo + y))
    for x in range(n_lo):
        for y in range(upper.n):
            below = leq(lower, x, na)
            expect = below and leq(upper, phi[lower.join[x][a]], y)
            if leq(glued, x, n_lo + y) != expect:
                out.append(("lower-upper", x, n_lo + y))
            expect = leq(lower, phi_inv[upper.fusion[y][b]], x) and not below
            if leq(glued, n_lo + y, x) != expect:
                out.append(("upper-lower", n_lo + y, x))
    return out


def glue_specs(A, B, cap):
    """Every valid gluing spec of A below B whose phi has at most cap
    pairs, by brute force over each bijection between the two cones.

    a runs over A's negative cone not below A's zero, b over B's negative
    cone with as many elements monoidally below it as lie above a. Each
    bijection phi of mon_up(a) onto mon_dn(b) with phi(1) = b and
    phi(a v 0) = b.neg b is tried, and yielded as a GluingSpec in the
    order of a, b and the permutations if validate_gluing passes.
    """
    from rlat.gluing import GluingSpec, validate_gluing

    def cone(alg):
        return [x for x in range(alg.n) if alg.join[x][alg.one] == alg.one]

    zero = A.neg[A.one]
    for a in cone(A):
        anchor = A.join[a][zero]
        if anchor == zero:
            continue
        dom = [x for x in range(A.n) if A.fusion[a][x] == a]
        if len(dom) > cap:
            continue
        for b in cone(B):
            cod = [y for y in range(B.n) if B.fusion[y][b] == y]
            if len(cod) != len(dom):
                continue
            # one pair when a v 0 = 1, which then needs b = b.neg b
            fixed = {A.one: b, anchor: B.fusion[b][B.neg[b]]}
            if (fixed[A.one] != b
                    or len(set(fixed.values())) != len(fixed)
                    or not set(fixed) <= set(dom)
                    or not set(fixed.values()) <= set(cod)):
                continue
            rest = [x for x in dom if x not in fixed]
            for perm in itertools.permutations(
                    [y for y in cod if y not in fixed.values()]):
                phi = {**fixed, **dict(zip(rest, perm))}
                spec = GluingSpec(A, B, a, b, phi)
                if validate_gluing(spec).ok:
                    yield spec
