"""The row kernel: the scans, a few C calls per row, that decide the axioms
on tables read as _rows_of gives them, bytes up to 256 elements and lists
above. Every branch on that row type is here."""

from itertools import chain, compress, count, repeat
from operator import itemgetter, ne


# Up to this many elements every id fits in a byte, and the kernels read
# the tables as bytes; above it, as lists.
_BYTE_IDS = 256


def _rows_of(table):
    """The rows of an n x n table as the kernels read them: bytes when every
    id fits in a byte, n <= _BYTE_IDS; the lists otherwise."""
    return list(map(bytes, table)) if len(table) <= _BYTE_IDS else table


def _gather(rows):
    """The one step the kernels fork on, for rows as _rows_of gives them:
    (tables, read, cat). read(ids) is the function that reads a row of
    tables at the ids in one C call, and cat joins rows or what read
    returns. Bytes are read by bytes.translate, whose table is the row
    padded to 256 bytes; lists by itemgetter, into tuples."""
    if isinstance(rows[0], bytes):
        return ([row.ljust(256) for row in rows],
                lambda ids: bytes(ids).translate, b"".join)
    return (rows, lambda ids: itemgetter(*ids),
            lambda parts: tuple(chain.from_iterable(parts)))


def _read_cells(rows, values):
    """The bytes values read at every cell of rows, as n*n bytes: one
    translate of the joined rows, or one itemgetter per list row. On one
    element the one cell is id 0, read without an itemgetter, which would
    return an int for one id."""
    if isinstance(rows[0], bytes):
        return b"".join(rows).translate(values.ljust(256))
    if len(rows) == 1:
        return values
    return b"".join([bytes(itemgetter(*row)(values)) for row in rows])


def _columns(flat, ids, n):
    """The columns ids of the n x n bytes flat, joined: the transpose of
    flat for ids = range(n)."""
    return b"".join(map(flat.__getitem__,
                        map(slice, ids, repeat(None), repeat(n))))


_SAME = b"1" + b"0" * 255       # translates a zero byte to b"1", others to b"0"


def _order(rows, by_row):
    """The verdicts rows[x][y] == (x if by_row else y) as n*n bytes
    b"0"/b"1", verdict (x, y) at x*n + y. Bytes rows are XORed with the
    probe as one int, lists compared with it cell by cell; either way a zero
    byte, the same id, is one translate away from its verdict."""
    n = len(rows)
    if isinstance(rows[0], bytes):
        probe = bytes(range(n)) * n
        if by_row:
            probe = _columns(probe, range(n), n)
        diff = (int.from_bytes(b"".join(rows), "big")
                ^ int.from_bytes(probe, "big")).to_bytes(n * n, "big")
    else:
        probes = map(repeat, range(n)) if by_row else repeat(range(n))
        diff = b"".join(map(bytes, map(map, repeat(ne), rows, probes)))
    return diff.translate(_SAME)


def _masks(flat, n, up):
    """The masks of the n x n verdicts flat: of its rows (up-sets) if up,
    bit y of mask x verdict (x, y), else of its columns (down-sets), bit x
    of mask y verdict (x, y)."""
    cuts = ((flat[x:x + n] for x in range(0, n * n, n)) if up
            else (flat[y::n] for y in range(n)))
    return tuple(int(cut[::-1], 2) for cut in cuts)


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


def _first_asymmetry(rows):
    """The first (x, y) with rows[x][y] != rows[y][x], or None, for rows as
    _rows_of gives them: bytes joined and compared whole with their
    transpose, the first index that differs divided into (x, y); lists
    compared row by row with the columns."""
    n = len(rows)
    if isinstance(rows[0], bytes):
        flat = b"".join(rows)
        transpose = _columns(flat, range(n), n)
        return None if flat == transpose else divmod(
            _first_ne(flat, transpose), n)
    return _first_difference(rows, map(list, zip(*rows)))


def _first_flat_difference(rows, others, xs, ys, zs):
    """_first_difference over rows that flatten ys x zs per x in xs, as the
    triple (x, y, z)."""
    w = _first_difference(rows, others)
    return w and (xs[w[0]], ys[w[1] // len(zs)], zs[w[1] % len(zs)])


def _first_distributivity_failure(op, jn, zs, start=0):
    """The first (x, y, z) with x >= start, y any id and z in zs, in scan
    order, with op[x][jn[y][z]] != jn[op[x][y]][op[x][z]], or None, for the
    rows of op and jn as _rows_of gives them.

    Row x over (y, z): op[x] read at the joins jn[y][z] against the rows
    jn[op[x][y]] read at op[x][z], joined; each read is one C call, a
    translate on bytes. zs holds two or more ids, so on lists each
    itemgetter of zs returns a tuple.
    """
    tables, read, cat = _gather(op)
    jn_tables = _gather(jn)[0]
    read_zs = read(zs)
    read_jn = read(cat(map(read_zs, jn_tables)))
    rng = range(len(jn))
    return _first_flat_difference(
        map(read_jn, tables[start:]),
        (cat(map(read(read_zs(t)), map(jn_tables.__getitem__, row)))
         for row, t in zip(op[start:], tables[start:])), rng[start:], rng, zs)


def _join_irreducibles(dn):
    """The ids z whose strict down-set is empty or the down-set of one
    element, for down-set masks dn: the minimal elements and those with one
    lower cover. In a finite join semilattice every element is the join of
    these below it, since one with two lower covers is their join."""
    principal = {0, *dn}
    return [z for z, d in enumerate(dn) if d & ~(1 << z) in principal]


def _first_join_failure(op, jn, dn):
    """_first_distributivity_failure over the whole carrier, for jn a
    semilattice with down-set masks dn: each row is tested at the
    join-irreducible z only, and only the first row that fails is scanned.
    """
    # Row x keeps every join iff op[x][y v g] = op[x][y] v op[x][g] for all
    # y and every join-irreducible g. Only if is plain. If: write z as the
    # join g1 v ... v gk of join-irreducibles and induct on k; k = 1 is the
    # test. For k > 1 put z' = g1 v ... v g(k-1); with join associative,
    #   op[x][y v z] = op[x][(y v z') v gk] = op[x][y v z'] v op[x][gk]
    #     (the test at y v z', gk)
    #   = op[x][y] v op[x][z'] v op[x][gk]   (induction, at y, z')
    #   = op[x][y] v op[x][z]                (the test at z', gk).
    # a semilattice of two or more elements has two or more join-irreducibles
    w = _first_distributivity_failure(op, jn, _join_irreducibles(dn))
    return w and _first_distributivity_failure(op, jn, range(len(jn)), w[0])


def _first_associativity_failure(rows):
    """The first (x, y, z) with t[t[x][y]][z] != t[x][t[y][z]], or None, for
    the rows of t as _rows_of gives them.

    Row x over (y, z): the rows t[t[x][y]] joined, against the cells of t
    read through row x, one translate on bytes. The one table of size 1 is
    a semilattice and never gets here, so on lists the itemgetter has two
    or more indexes and returns a tuple.
    """
    tables, read, cat = _gather(rows)
    read_t = read(cat(rows))
    rng = range(len(rows))
    return _first_flat_difference(
        (cat(map(rows.__getitem__, row)) for row in rows),
        map(read_t, tables), rng, rng, rng)


def _is_mask_homomorphism(table, masks, op):
    """Whether masks[x t y] == op(masks[x], masks[y]) for all x < y (by
    index), x t y read from the commutative table t, in O(n^2).

    With op = and_ and masks[x] the mask of {y : x t y = y}, this decides
    whether a commutative idempotent table is associative: x t y is then
    the least upper bound in the relation the masks describe, which makes
    it a partial order, and least upper bounds are associative.

    Row x reads masks at row[x + 1:] by one itemgetter call, a tuple
    compared whole with op's results. x itself ends the read, so that it
    has two or more ids and returns a tuple; the last row has no y > x.
    """
    return all(itemgetter(*row[x + 1:], x)(masks)
               == (*map(op, repeat(mx), masks[x + 1:]), mx)
               for x, mx, row in zip(range(len(masks) - 1), masks, table))
