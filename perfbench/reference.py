"""Plain reference code for the benchmark's output checks.

Nothing here imports rlat. Algebras are plain tables (`Alg`), checked with
straight loops over every tuple: no bitmasks, no pruning, no reuse of the
library's search. It is slow on purpose and runs only outside timed code.
"""

import itertools
from collections import namedtuple

Alg = namedtuple("Alg", "names one neg join fusion")

AXIOMS = (
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


def tables(obj):
    """Copy the five fields of any algebra-like object into an Alg."""
    return Alg(list(obj.names), obj.one, list(obj.neg),
               [list(row) for row in obj.join],
               [list(row) for row in obj.fusion])


def parse_text(text):
    """Read the line-oriented algebra format (see the project README)."""
    rows = {"join": [], "fusion": []}
    fields = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] in rows:
            rows[tokens[0]].append(tokens[1:])
        else:
            fields[tokens[0]] = tokens[1:]
    names = fields["elements"]
    index = {name: i for i, name in enumerate(names)}

    def ids(tokens):
        return [index[t] for t in tokens]

    return Alg(names, index[fields["one"][0]], ids(fields["neg"]),
               [ids(r) for r in rows["join"]],
               [ids(r) for r in rows["fusion"]])


def emit_text(a):
    lines = ["elements " + " ".join(a.names),
             "one " + a.names[a.one],
             "neg " + " ".join(a.names[v] for v in a.neg)]
    for key, table in (("join", a.join), ("fusion", a.fusion)):
        for row in table:
            lines.append(key + " " + " ".join(a.names[v] for v in row))
    return "\n".join(lines) + "\n"


def relabel(a, perm):
    """The same algebra with element i moved to position perm[i]."""
    n = len(a.names)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return Alg([a.names[inv[i]] for i in range(n)], perm[a.one],
               [perm[a.neg[inv[i]]] for i in range(n)],
               [[perm[a.join[inv[i]][inv[j]]] for j in range(n)]
                for i in range(n)],
               [[perm[a.fusion[inv[i]][inv[j]]] for j in range(n)]
                for i in range(n)])


def leq(a, x, y):
    return a.join[x][y] == y


def positive_cone(a):
    return [x for x in range(len(a.names)) if leq(a, a.one, x)]


def negative_cone(a):
    return [x for x in range(len(a.names)) if leq(a, x, a.one)]


def laws_hold(a):
    """Every defining law, with residuation in its full form
    x.y <= z iff y <= neg(x . neg z)."""
    n = len(a.names)
    one, neg, join, fusion = a.one, a.neg, a.join, a.fusion
    for x in range(n):
        if neg[neg[x]] != x or join[x][x] != x or fusion[x][x] != x:
            return False
        if fusion[one][x] != x:
            return False
        for y in range(n):
            if join[x][y] != join[y][x] or fusion[x][y] != fusion[y][x]:
                return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    return False
                if fusion[fusion[x][y]][z] != fusion[x][fusion[y][z]]:
                    return False
                if fusion[x][join[y][z]] != join[fusion[x][y]][fusion[x][z]]:
                    return False
                r = neg[fusion[x][neg[z]]]
                if (join[fusion[x][y]][z] == z) != (join[y][r] == r):
                    return False
    return True


def axiom_scan(a):
    """One (name, ok, first failing tuple) per axiom, tuples in
    lexicographic order, in the wording of `rlat check`."""
    n = len(a.names)
    one, neg, jn, fu = a.one, a.neg, a.join, a.fusion
    zero = neg[one]

    def below(x, y):
        return jn[x][y] == y

    def resid(x, y):
        lhs = below(x, neg[y])
        mid = below(fu[x][y], zero)
        rhs = below(y, neg[x])
        return lhs == mid and mid == rhs

    laws = (
        (2, lambda x, y: jn[x][y] == jn[y][x]),
        (3, lambda x, y, z: jn[jn[x][y]][z] == jn[x][jn[y][z]]),
        (1, lambda x: jn[x][x] == x),
        (2, lambda x, y: fu[x][y] == fu[y][x]),
        (3, lambda x, y, z: fu[fu[x][y]][z] == fu[x][fu[y][z]]),
        (1, lambda x: fu[one][x] == x),
        (1, lambda x: fu[x][x] == x),
        (1, lambda x: neg[neg[x]] == x),
        (2, resid),
        (3, lambda x, y, z: fu[x][jn[y][z]] == jn[fu[x][y]][fu[x][z]]),
    )
    out = []
    for name, (arity, holds) in zip(AXIOMS, laws):
        witness = None
        for t in itertools.product(range(n), repeat=arity):
            if not holds(*t):
                witness = t
                break
        out.append((name, witness is None, witness))
    return out


def report_lines(scan, names):
    """The lines `rlat check` prints for a scan."""
    out = []
    for name, ok, witness in scan:
        if ok:
            out.append("%s: pass" % name)
        else:
            out.append("%s: FAIL at (%s)"
                       % (name, ", ".join(names[w] for w in witness)))
    return out


def is_boolean_block(a, elements):
    """elements is closed under the operations and forms a Boolean algebra:
    fusion is the meet of the lattice order, neg complements, distributive."""
    els = list(elements)
    inside = set(els)
    if len(els) & (len(els) - 1):
        return False
    bottoms = [b for b in els if all(leq(a, b, x) for x in els)]
    tops = [t for t in els if all(leq(a, x, t) for x in els)]
    if len(bottoms) != 1 or len(tops) != 1:
        return False
    bottom, top = bottoms[0], tops[0]
    for x in els:
        nx = a.neg[x]
        if nx not in inside or a.join[x][nx] != top or a.fusion[x][nx] != bottom:
            return False
        for y in els:
            m = a.fusion[x][y]
            if a.join[x][y] not in inside or m not in inside:
                return False
            if not (leq(a, m, x) and leq(a, m, y)):
                return False
            if any(leq(a, z, x) and leq(a, z, y) and not leq(a, z, m)
                   for z in els):
                return False
            for z in els:
                if a.fusion[x][a.join[y][z]] != a.join[m][a.fusion[x][z]]:
                    return False
    return True


def is_boolean(a):
    return is_boolean_block(a, range(len(a.names)))


def is_congruence(a, rows):
    """rows[x] is a bitmask of the elements related to x."""
    n = len(a.names)

    def rel(x, y):
        return (rows[x] >> y) & 1 == 1

    for x in range(n):
        if not rel(x, x):
            return False
        for y in range(n):
            if not rel(x, y):
                continue
            if not rel(y, x) or not rel(a.neg[x], a.neg[y]):
                return False
            for z in range(n):
                if rel(y, z) and not rel(x, z):
                    return False
                if not rel(a.join[x][z], a.join[y][z]):
                    return False
                if not rel(a.fusion[x][z], a.fusion[y][z]):
                    return False
    return True


def is_isomorphism(a, b, m):
    """m (a list, a -> b) is a bijection preserving join, fusion, neg, one."""
    n = len(a.names)
    if m is None or len(m) != n or len(b.names) != n:
        return False
    if sorted(m) != list(range(n)) or m[a.one] != b.one:
        return False
    for x in range(n):
        if m[a.neg[x]] != b.neg[m[x]]:
            return False
        for y in range(n):
            if m[a.join[x][y]] != b.join[m[x]][m[y]]:
                return False
            if m[a.fusion[x][y]] != b.fusion[m[x]][m[y]]:
                return False
    return True


def isomorphic(a, b):
    """Try every bijection fixing the unit; small carriers only."""
    n = len(a.names)
    if len(b.names) != n:
        return False
    rest_a = [x for x in range(n) if x != a.one]
    rest_b = [y for y in range(n) if y != b.one]
    for image in itertools.permutations(rest_b):
        m = [0] * n
        m[a.one] = b.one
        for x, y in zip(rest_a, image):
            m[x] = y
        if is_isomorphism(a, b, m):
            return True
    return False


def is_restriction(part, a, same_unit):
    """part's tables are a's tables restricted to part's elements, matched
    by name; with same_unit the units agree too."""
    index = {name: i for i, name in enumerate(a.names)}
    ids = [index.get(name) for name in part.names]
    if None in ids:
        return False
    if same_unit and ids[part.one] != a.one:
        return False
    k = len(ids)
    for i in range(k):
        if ids[part.neg[i]] != a.neg[ids[i]]:
            return False
        for j in range(k):
            if ids[part.join[i][j]] != a.join[ids[i]][ids[j]]:
                return False
            if ids[part.fusion[i][j]] != a.fusion[ids[i]][ids[j]]:
                return False
    return True
