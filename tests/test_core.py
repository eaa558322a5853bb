import gc
import itertools
import random
import sys
from operator import and_

import pytest

from oracles import (meet_infimum_witness, naive_isomorphic,
                     negation_antitone_witness, scan_axioms)
import rlat.kernel
from rlat import (AXIOM_NAMES, FiniteInRL, Report, congruence_lattice,
                  decompose, find_atoms, find_isomorphism, partition,
                  reassemble, split, subalgebra_generated, validate)
from rlat.core import _fingerprints
from rlat.fileformat import _covers
from rlat.generate import boolean_algebra, build_an
from rlat.kernel import (_first_distributivity_failure, _first_join_failure,
                         _is_mask_homomorphism, _join_irreducibles, _rows_of)
from theorems import block_bounds, elementary_properties, scan_distributivity


def two_chain():
    return FiniteInRL(["0", "1"], 1, [1, 0],
                      [[0, 1], [1, 1]], [[0, 0], [0, 1]])


def fresh(alg):
    """A copy of alg with nothing cached, so that it reads its tables by
    the kernel in force."""
    return FiniteInRL(alg.names, alg.one, alg.neg, alg.join, alg.fusion)


@pytest.fixture
def list_kernel(monkeypatch):
    """The list kernel, which runs above 256 elements, on every algebra
    built while the test runs."""
    monkeypatch.setattr(rlat.kernel, "_BYTE_IDS", 0)


class TestConstruction:
    def test_rejects_empty_carrier(self):
        with pytest.raises(ValueError):
            FiniteInRL([], 0, [], [], [])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FiniteInRL(["a", "a"], 0, [0, 1], [[0, 1], [1, 1]],
                       [[0, 0], [0, 1]])
        # a name is one token of the file format, which splits lines at
        # any whitespace str.split() knows, Unicode included
        for bad in ("", " ", 0, " a", "a b", "a\tb", "a\xa0b", "a\u2028b"):
            with pytest.raises(ValueError, match="nonempty tokens"):
                FiniteInRL(["a", bad], 0, [0, 1], [[0, 1], [1, 1]],
                           [[0, 0], [0, 1]])

    def test_rejects_unit_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteInRL(["0", "1"], 2, [1, 0], [[0, 1], [1, 1]],
                       [[0, 0], [0, 1]])

    def test_rejects_bad_neg(self):
        with pytest.raises(ValueError):
            FiniteInRL(["0", "1"], 1, [1], [[0, 1], [1, 1]],
                       [[0, 0], [0, 1]])
        with pytest.raises(ValueError):
            FiniteInRL(["0", "1"], 1, [1, 5], [[0, 1], [1, 1]],
                       [[0, 0], [0, 1]])

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError):
            FiniteInRL(["0", "1"], 1, [1, 0], [[0, 1]], [[0, 0], [0, 1]])

    def test_rejects_entry_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteInRL(["0", "1"], 1, [1, 0], [[0, 9], [1, 1]],
                       [[0, 0], [0, 1]])

    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match="ids must be ints"):
            FiniteInRL(["a"], 0.0, [0], [[0]], [[0]])
        for neg, join, fusion in (([0.0], [[0]], [[0]]),
                                  ([0], [[0.0]], [[0]]),
                                  ([0], [[0]], [[0.0]])):
            with pytest.raises(ValueError, match="ids must be ints"):
                FiniteInRL(["a"], 0, neg, join, fusion)
        for join, fusion in (([[0, 1.0], [1, 1]], [[0, 0], [0, 1]]),
                             ([[0, 1], [1, 1]], [[0, 0], [0, 1.0]])):
            with pytest.raises(ValueError, match="ids must be ints"):
                FiniteInRL(["0", "1"], 1, [1, 0], join, fusion)

    def test_rejects_unhashable_ids_and_names(self):
        for one, neg, join, fusion in (([0], [0], [[0]], [[0]]),
                                       (0, [[0]], [[0]], [[0]]),
                                       (0, [0], [[[0]]], [[0]]),
                                       (0, [0], [[0]], [[[0]]])):
            with pytest.raises(ValueError, match="ids must be ints"):
                FiniteInRL(["a"], one, neg, join, fusion)
        with pytest.raises(ValueError, match="nonempty tokens"):
            FiniteInRL([["a"]], 0, [0], [[0]], [[0]])

    def test_rejects_non_iterable_neg_and_tables(self):
        for neg, join, fusion in ((5, [[0]], [[0]]),
                                  ([0], [0], [[0]]),
                                  ([0], [[0]], 5)):
            with pytest.raises(ValueError, match="must be a sequence"):
                FiniteInRL(["a"], 0, neg, join, fusion)

    def test_element_lookup(self, a1):
        assert a1.names[a1.element("a")] == "a"
        with pytest.raises(ValueError):
            a1.element("nope")

    def test_index_is_built_on_first_name_lookup(self, a1, built):
        # validate, partition, congruence_lattice, decompose and reassemble
        # look no name up, so no algebra they take or build holds an index
        subjects = [fresh(alg) for alg in (a1, build_an(3),
                                           boolean_algebra(3))]
        for alg in subjects:
            assert validate(alg).ok
            partition(alg)
            congruence_lattice(alg)
            reassemble(decompose(alg))
        assert len(built) > len(subjects)
        assert not [alg for alg in built if "index" in vars(alg)]
        # element and split read it; it maps each name to its id
        a, b = fresh(a1), fresh(build_an(3))
        assert a.names[a.element("a")] == "a"
        res = split(b, find_atoms(b)[0])
        for alg in (a, res.lower, res.upper):
            assert "index" in vars(alg)
            assert alg.index == {name: i for i, name in enumerate(alg.names)}

    def test_equality_is_by_content(self):
        assert two_chain() == two_chain()
        other = FiniteInRL(["0", "x"], 1, [1, 0], [[0, 1], [1, 1]],
                           [[0, 0], [0, 1]])
        assert two_chain() != other
        # another type is never equal
        assert (two_chain() == 0) is False
        assert (two_chain() != "x") is True

    def test_repr_names_size_and_unit(self):
        assert repr(boolean_algebra(1)) == "FiniteInRL(n=2, one=1)"


class TestReport:
    def test_accessors(self):
        rep = Report()
        rep.add("first", True)
        rep.add("second", False, (1, 2))
        assert not rep.ok
        assert rep.failures() == [("second", (1, 2))]
        assert rep.witness("second") == (1, 2)
        assert rep.witness("first") is None
        with pytest.raises(KeyError):
            rep.witness("missing")

    def test_lines_render_names(self):
        rep = Report()
        rep.add("good", True)
        rep.add("bad", False, (0, 1))
        assert rep.lines(["p", "q"]) == ["good: pass", "bad: FAIL at (p, q)"]
        assert rep.lines() == ["good: pass", "bad: FAIL at (0, 1)"]


class TestValidate:
    def test_fixture_passes_every_axiom(self, a1):
        rep = validate(a1)
        assert rep.ok
        assert tuple(name for name, _, _ in rep.checks) == AXIOM_NAMES

    def test_trivial_and_chain_pass(self):
        assert validate(boolean_algebra(0)).ok
        assert validate(two_chain()).ok

    def test_identity_negation_fails_residuation(self):
        b = boolean_algebra(2)
        bad = FiniteInRL(b.names, b.one, list(range(b.n)), b.join, b.fusion)
        rep = validate(bad)
        assert not rep.ok
        assert any(name == "residuation" for name, _ in rep.failures())

    def test_broken_join_reports_first_witness(self, a1):
        join = [row[:] for row in a1.join]
        # break commutativity at one asymmetric cell
        join[0][1] = a1.one
        bad = FiniteInRL(a1.names, a1.one, a1.neg, join, a1.fusion)
        rep = validate(bad)
        name, witness = rep.failures()[0]
        assert name == "join commutative"
        assert witness == (0, 1)


def single_cell_mutants(alg):
    """Every one-sided and every symmetric single-cell change of join and
    of fusion, as (join, fusion) table pairs."""
    n = alg.n
    for label in ("join", "fusion"):
        base = getattr(alg, label)
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == base[i][j]:
                        continue
                    sides = [[(i, j)]]
                    if i < j:
                        sides.append([(i, j), (j, i)])
                    for cells in sides:
                        t = [row[:] for row in base]
                        for p, q in cells:
                            t[p][q] = v
                        if label == "join":
                            yield t, alg.fusion
                        else:
                            yield alg.join, t


def every_signature(*sizes):
    """Every unit, neg map, join table and fusion table on each size."""
    for n in sizes:
        names = [str(x) for x in range(n)]
        maps = list(itertools.product(range(n), repeat=n))
        tables = [[list(t[i:i + n]) for i in range(0, n * n, n)]
                  for t in itertools.product(range(n), repeat=n * n)]
        for one, neg, join, fusion in itertools.product(range(n), maps,
                                                        tables, tables):
            yield FiniteInRL(names, one, neg, join, fusion)


class TestValidateAgainstScan:
    """validate's fast paths must report what the plain lexicographic scan
    reports: the same verdict and the same first witness per axiom."""

    @pytest.mark.parametrize("which", ["a1", "an1", "bool3"])
    def test_single_cell_mutants(self, a1, which):
        alg = {"a1": a1, "an1": build_an(1),
               "bool3": boolean_algebra(3)}[which]
        count = 0
        for join, fusion in single_cell_mutants(alg):
            bad = FiniteInRL(alg.names, alg.one, alg.neg, join, fusion)
            assert validate(bad).checks == \
                scan_axioms(alg.one, alg.neg, join, fusion), (join, fusion)
            count += 1
        # one-sided: 2 n^2 (n-1); symmetric off the diagonal: n (n-1)^2
        n = alg.n
        assert count == 2 * n * n * (n - 1) + n * (n - 1) ** 2

    def test_corpus(self, corpus6):
        for alg in map(fresh, corpus6.algebras):
            assert validate(alg).checks == \
                scan_axioms(alg.one, alg.neg, alg.join, alg.fusion)

    def test_every_table_of_size_one_and_two(self):
        # on one element itemgetter with a single index returns a scalar,
        # not a tuple
        count = 0
        for alg in every_signature(1, 2):
            assert validate(alg).checks == scan_axioms(
                alg.one, alg.neg, alg.join, alg.fusion), alg
            count += 1
        assert count == 1 + 2 * 4 * 16 * 16

    @pytest.mark.parametrize("which", ["bool5", "an4"])
    def test_seeded_mutants_on_long_rows(self, which):
        # n = 32 and 22: the row comparisons run on long rows
        alg = {"bool5": boolean_algebra(5), "an4": build_an(4)}[which]
        rng = random.Random(9)
        n = alg.n
        for i in range(48):
            label = rng.choice(("join", "fusion"))
            x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            t = [row[:] for row in getattr(alg, label)]
            t[x][y] = v
            if i % 2:
                t[y][x] = v
            tables = {"join": alg.join, "fusion": alg.fusion, label: t}
            bad = FiniteInRL(alg.names, alg.one, alg.neg, tables["join"],
                             tables["fusion"])
            assert validate(bad).checks == scan_axioms(
                alg.one, alg.neg, tables["join"], tables["fusion"]), \
                (label, x, y, v)

    def test_fusion_mutants_in_late_rows(self):
        # join is untouched, so the first failing fusion row is found at the
        # join-irreducibles (7 of 64) and only that row is scanned in full
        alg = boolean_algebra(6)
        rng = random.Random(20)
        rows = set()
        for i in range(6):
            # the symmetric ones change rows x and y, both >= 32
            x, y = rng.randrange(32, 64), rng.randrange(32 * (i % 2), 64)
            v = rng.randrange(64)
            fusion = [row[:] for row in alg.fusion]
            fusion[x][y] = v
            if i % 2:
                fusion[y][x] = v
            bad = FiniteInRL(alg.names, alg.one, alg.neg, alg.join, fusion)
            checks = validate(bad).checks
            assert checks == scan_axioms(alg.one, alg.neg, alg.join,
                                         fusion), (x, y, v)
            w = checks[-1][2]
            rows.add(w and w[0])
        assert min(rows) >= 32

    def test_every_fusion_on_a_v_shaped_join(self):
        # a v b = t with no bottom: the minimal a and b are join-irreducible
        join = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
        assert _join_irreducibles(FiniteInRL(
            "abt", 2, [1, 0, 2], join, join).lat_dn) == [0, 1]
        failed = 0
        for cells in itertools.product(range(3), repeat=9):
            fusion = [list(cells[i:i + 3]) for i in (0, 3, 6)]
            alg = FiniteInRL("abt", 2, [1, 0, 2], join, fusion)
            checks = validate(alg).checks
            assert checks == scan_axioms(2, [1, 0, 2], join, fusion), fusion
            failed += not checks[-1][1]
        assert failed == 18954

    def test_random_fusions_on_a_chain_join(self):
        # on a chain every element is join-irreducible
        n = 6
        join = [[max(x, y) for y in range(n)] for x in range(n)]
        neg = [n - 1 - x for x in range(n)]
        names = [str(x) for x in range(n)]
        assert _join_irreducibles(
            FiniteInRL(names, 0, neg, join, join).lat_dn) == list(range(n))
        rng = random.Random(20)
        failed = 0
        for i in range(200):
            # half of them the meet with one cell changed
            fusion = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if i % 2:
                fusion = [[min(x, y) for y in range(n)] for x in range(n)]
                fusion[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            alg = FiniteInRL(names, n - 1, neg, join, fusion)
            checks = validate(alg).checks
            assert checks == scan_axioms(n - 1, neg, join, fusion), fusion
            failed += not checks[-1][1]
        assert 0 < failed < 200

    def test_semilattice_certificate_refuses_a_cyclic_table(self):
        # a v b = b, b v c = c, c v a = a, as join and as fusion: commutative
        # and idempotent, each element below its join with any other, yet
        # not associative, since no join is a least upper bound
        t = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
        alg = FiniteInRL("abc", 0, [0, 1, 2], t, t)
        assert all(alg.lat_up[x] >> t[x][y] & 1
                   for x in range(3) for y in range(3))
        assert not _is_mask_homomorphism(t, alg.lat_up, and_)
        assert not _is_mask_homomorphism(t, alg.mon_dn, and_)
        checks = validate(alg).checks
        assert checks == scan_axioms(0, [0, 1, 2], t, t)
        report = {name: (ok, w) for name, ok, w in checks}
        assert report["join commutative"] == report["join idempotent"] \
            == report["fusion commutative"] == (True, None)
        assert report["join associative"] == (False, (0, 1, 2))
        assert not report["fusion associative"][0]

    def test_fast_path_accepts_members(self, a1, corpus6):
        # a member never falls back to the O(n^3) associativity scan
        for alg in map(fresh, [a1, build_an(3), *corpus6.algebras]):
            assert _is_mask_homomorphism(alg.join, alg.lat_up, and_)
            assert _is_mask_homomorphism(alg.fusion, alg.mon_dn, and_)


class TestDistributivityScanOnSubsets:
    """The row scan names what the triple loop names on the shapes its
    callers pass: the rows from any start, every y, and as zs the whole
    carrier, the join-irreducibles or a sorted subset of two or more ids."""

    @pytest.mark.parametrize("which", ["a1", "an2", "bool3"])
    def test_seeded_mutants(self, a1, which):
        alg = {"a1": a1, "an2": build_an(2),
               "bool3": boolean_algebra(3)}[which]
        rng = random.Random(18)
        n = alg.n
        gens = _join_irreducibles(alg.lat_dn)
        found = set()
        for _ in range(40):
            label = rng.choice(("join", "fusion"))
            # a third of the cells on the diagonal, where a join mutant
            # can fail at (x, i, i)
            i = rng.randrange(n)
            j = i if rng.randrange(3) == 0 else rng.randrange(n)
            t = [row[:] for row in getattr(alg, label)]
            t[i][j] = rng.randrange(n)
            tables = {"join": alg.join, "fusion": alg.fusion, label: t}
            bad = FiniteInRL(alg.names, alg.one, alg.neg, tables["join"],
                             tables["fusion"])
            shapes = {"range": range(n), "irreducibles": gens,
                      "subset": sorted(rng.sample(range(n),
                                                  rng.randrange(2, n)))}
            for op in (bad.fusion, bad.meet):
                for start in (0, rng.randrange(n)):
                    for shape, zs in shapes.items():
                        want = scan_distributivity(
                            op, bad.join, range(start, n), range(n), zs)
                        assert _first_distributivity_failure(
                            _rows_of(op), _rows_of(bad.join), zs,
                            start) == want, (label, zs)
                        if want:
                            found.add((shape, start > 0))
        # failures were found for each shape of zs, from row 0 and later
        assert len(found) == 6

    @pytest.mark.parametrize("which", ["a1", "an2", "bool3"])
    def test_join_irreducible_rows(self, a1, which):
        # on a semilattice join, testing each row at the join-irreducibles
        # and then scanning the first failing row names what the triple
        # loop over the whole carrier names
        alg = {"a1": a1, "an2": build_an(2),
               "bool3": boolean_algebra(3)}[which]
        rng = random.Random(20)
        n, jn, rows = alg.n, alg.join, set()
        for _ in range(60):
            op = [row[:] for row in rng.choice((alg.fusion, alg.meet))]
            for _ in range(rng.randrange(3)):
                op[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            want = scan_distributivity(op, jn, range(n), range(n))
            assert _first_join_failure(
                _rows_of(op), _rows_of(jn), alg.lat_dn) == want, op
            rows.add(want and want[0])
        # members pass, and failures were named in several rows
        assert None in rows and len(rows) > 4


def assert_list_kernel():
    alg = build_an(1)
    assert alg._rows == (alg.join, alg.fusion)
    assert isinstance(alg._rows[0][0], list)


@pytest.mark.usefixtures("list_kernel")
class TestValidateAgainstScanOnLists(TestValidateAgainstScan):
    """The same oracle on the list kernel, which runs above 256 elements
    and so only on large carriers in the other tests."""

    def test_runs_the_list_kernel(self):
        assert_list_kernel()


@pytest.mark.usefixtures("list_kernel")
class TestDistributivityScanOnSubsetsOnLists(
        TestDistributivityScanOnSubsets):
    """The same row scans on the list kernel."""

    def test_runs_the_list_kernel(self):
        assert_list_kernel()


def plain_order(table, probe):
    """The verdicts table[x][y] == probe(x, y) by plain loops: b"0"/b"1" row
    by row, and the masks of the rows and of the columns."""
    rng = range(len(table))
    verdict = [[table[x][y] == probe(x, y) for y in rng] for x in rng]
    flat = b"".join(b"1" if v else b"0" for row in verdict for v in row)
    up = tuple(sum(1 << y for y in rng if verdict[x][y]) for x in rng)
    dn = tuple(sum(1 << x for x in rng if verdict[x][y]) for y in rng)
    return flat, up, dn


MASKS = ("lat_up", "lat_dn", "mon_up", "mon_dn")


class TestDerived:
    def test_zero_is_negated_unit(self, a1):
        assert a1.zero == a1.neg[a1.one]
        assert a1.names[a1.zero] == "0"

    def test_meet_by_de_morgan(self, a1):
        ng, jn = a1.neg, a1.join
        for x in range(a1.n):
            for y in range(a1.n):
                assert a1.meet[x][y] == ng[jn[ng[x]][ng[y]]]

    def test_residuation_round_trip(self, a1):
        # x.y <= z iff y <= x -> z
        for x in range(a1.n):
            for y in range(a1.n):
                for z in range(a1.n):
                    lhs = a1.leq(a1.fusion[x][y], z)
                    assert lhs == a1.leq(y, a1.imp[x][z])

    def test_orders_and_cones(self, a1):
        n = a1.n
        for x in range(n):
            for y in range(n):
                assert a1.leq(x, y) == (a1.join[x][y] == y)
                assert a1.mleq(x, y) == (a1.fusion[x][y] == x)
        assert all(a1.mleq(x, a1.one) for x in range(n))
        assert a1.lat_up[a1.one] == sum(1 << x for x in range(n)
                                        if a1.leq(a1.one, x))
        assert a1.neg_cone == sum(1 << x for x in range(n)
                                  if a1.leq(x, a1.one))

    def test_order_masks_and_tables_match_plain_loops(self, order_corpus):
        # members and non-members alike, the tables of size 2 also one-sided
        # (not commutative); bit y of a mask row x is x R y
        for alg in itertools.chain(order_corpus, every_signature(2)):
            n, jn, fu, ng = alg.n, alg.join, alg.fusion, alg.neg
            rng = range(n)

            def masks(rel):
                return tuple(sum(1 << y for y in rng if rel(x, y))
                             for x in rng)

            assert alg.lat_up == masks(lambda x, y: jn[x][y] == y)
            assert alg.lat_dn == masks(lambda x, y: jn[y][x] == x)
            assert alg.mon_up == masks(lambda x, y: fu[x][y] == x)
            assert alg.mon_dn == masks(lambda x, y: fu[y][x] == y)
            assert alg.meet == [[ng[jn[ng[x]][ng[y]]] for y in rng]
                                for x in rng]
            assert alg.imp == [[ng[fu[ng[y]][x]] for y in rng] for x in rng]

    def test_order_kernel_matches_plain_loops(self):
        # the verdict bytes and the row and column masks of both orders on
        # every table of size 1 and 2 and on seeded one-sided mutants of
        # members (x.y changed, y.x not), whose row reads and column reads
        # differ
        tables = [[list(t[i:i + n]) for i in range(0, n * n, n)]
                  for n in (1, 2)
                  for t in itertools.product(range(n), repeat=n * n)]
        rng = random.Random(11)
        for alg in (build_an(2), boolean_algebra(4)):
            n = alg.n
            for base in (alg.join, alg.fusion):
                for _ in range(30):
                    x, y = rng.sample(range(n), 2)
                    t = [row[:] for row in base]
                    t[x][y] = rng.choice([v for v in range(n)
                                          if v != t[y][x]])
                    tables.append(t)
        one_sided = 0
        for t in tables:
            n = len(t)
            one_sided += t != [list(col) for col in zip(*t)]
            alg = FiniteInRL([str(x) for x in range(n)], 0, list(range(n)),
                             t, t)
            lat = plain_order(t, lambda x, y: y)
            mon = plain_order(t, lambda x, y: x)
            assert (alg._lat, alg._mon) == (lat[0], mon[0]), t
            # each mask is built when it is first read, and no other with it
            for i, want in enumerate(lat[1:] + mon[1:]):
                assert getattr(alg, MASKS[i]) == want, (t, MASKS[i])
                assert set(MASKS) & set(vars(alg)) == set(MASKS[:i + 1])
        assert (len(tables), one_sided) == (137, 128)

    def test_order_kernel_on_lists_matches_plain_loops(self, list_kernel):
        assert_list_kernel()
        self.test_order_kernel_matches_plain_loops()

    def test_validate_builds_only_the_masks_it_reads(self, a1):
        # a member's validate reads lat_up and mon_dn; partition and
        # decompose build the others they read when they first read them
        for alg in (a1, build_an(3), boolean_algebra(3)):
            a = fresh(alg)
            assert validate(a).ok
            assert set(MASKS) & set(vars(a)) == {"lat_up", "mon_dn"}
            assert partition(a) == partition(fresh(alg))
            assert decompose(a) == decompose(fresh(alg))
            lat = plain_order(a.join, lambda x, y: y)
            mon = plain_order(a.fusion, lambda x, y: x)
            assert tuple(getattr(a, name) for name in MASKS) == \
                lat[1:] + mon[1:]

    def test_fixture_cover_counts(self, a1):
        assert (len(_covers(a1.lat_up)), len(_covers(a1.mon_up))) == (13, 12)

    def test_block_bounds(self, a1):
        lo, hi = block_bounds(a1, a1.element("a"))
        assert (a1.names[lo], a1.names[hi]) == ("bot", "top")
        lo, hi = block_bounds(a1, a1.element("0"))
        assert (a1.names[lo], a1.names[hi]) == ("0", "1")


class TestElementaryProperties:
    def test_hold_on_fixture(self, a1):
        rep = elementary_properties(a1)
        assert rep.ok

    def test_hold_on_corpus(self, corpus6):
        for alg in corpus6.algebras:
            assert elementary_properties(alg).ok

    def test_order_checks_match_oracles(self, order_corpus):
        # the two checks that read the order masks, on members and
        # non-members alike: same verdict, same first witness
        failed = {"negation antitone": 0, "meet is the lattice infimum": 0}
        for alg in order_corpus:
            rep = elementary_properties(alg)
            expect = {
                "negation antitone":
                    negation_antitone_witness(alg.join, alg.neg),
                "meet is the lattice infimum":
                    meet_infimum_witness(alg.join, alg.meet),
            }
            for name, ok, witness in rep.checks:
                if name in expect:
                    assert (ok, witness) == (expect[name] is None,
                                             expect[name]), (name, alg)
                    failed[name] += not ok
        assert failed == {"negation antitone": 926,
                          "meet is the lattice infimum": 1224}

    def test_fusion_between_meet_and_join(self, a1):
        for x in range(a1.n):
            for y in range(a1.n):
                f = a1.fusion[x][y]
                assert a1.leq(a1.meet[x][y], f)
                assert a1.leq(f, a1.join[x][y])


def relabelled(alg, perm):
    """A copy of alg with element x moved to id perm[x], keeping its name."""
    n = alg.n
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    return FiniteInRL([alg.names[x] for x in inv], perm[alg.one],
                      [perm[alg.neg[x]] for x in inv],
                      [[perm[alg.join[x][y]] for y in inv] for x in inv],
                      [[perm[alg.fusion[x][y]] for y in inv] for x in inv])


def graph_algebra(n, edges):
    """Join and fusion both x op y = y for adjacent x, y and x otherwise,
    with unit 0 and neg the identity; not a member. Every element's
    invariants count its neighbours, so on a regular graph all elements but
    the unit share them, and an isomorphism is a graph isomorphism fixing
    0."""
    adjacent = {(x, y) for x, y in edges} | {(y, x) for x, y in edges}
    table = [[y if (x, y) in adjacent else x for y in range(n)]
             for x in range(n)]
    return FiniteInRL([str(x) for x in range(n)], 0, list(range(n)),
                      table, table)


def neg_variants(alg):
    """alg with neg changed at two elements, every way."""
    for p, q in itertools.combinations(range(alg.n), 2):
        for u, w in itertools.product(range(alg.n), repeat=2):
            neg = list(alg.neg)
            neg[p], neg[q] = u, w
            if neg != alg.neg:
                yield FiniteInRL(alg.names, alg.one, neg, alg.join,
                                 alg.fusion)


def assert_isomorphism(a, b, m):
    """m is a bijection a -> b preserving the unit, neg, join and fusion,
    checked cell by cell."""
    assert sorted(m) == list(range(b.n))
    assert m[a.one] == b.one
    for x in range(a.n):
        assert m[a.neg[x]] == b.neg[m[x]]
        for y in range(a.n):
            assert m[a.join[x][y]] == b.join[m[x]][m[y]]
            assert m[a.fusion[x][y]] == b.fusion[m[x]][m[y]]


class TestIsomorphism:
    def test_fixture_matches_generated_member(self, a1):
        m = find_isomorphism(build_an(1), a1)
        assert m is not None

    def test_returned_map_commutes_with_operations(self, a1):
        src = build_an(1)
        assert_isomorphism(src, a1, find_isomorphism(src, a1))

    def test_symmetric_in_success_and_failure(self, corpus6):
        four = [g for g in corpus6.algebras if g.n == 4]
        assert len(four) == 2
        assert find_isomorphism(four[0], four[1]) is None
        assert find_isomorphism(four[1], four[0]) is None
        assert find_isomorphism(four[0], boolean_algebra(3)) is None

    def test_agrees_with_permutation_search(self, corpus7):
        found = 0
        for x in corpus7:
            for y in corpus7:
                m = find_isomorphism(x, y)
                assert (m is not None) == naive_isomorphic(x, y)
                if m is not None:
                    assert_isomorphism(x, y, m)
                    found += 1
        assert found == len(corpus7) == 15

    def test_relabelled_families(self):
        # build_an(k) has a forced map; boolean_algebra(k)'s atoms share
        # their invariants, so it takes the search
        rng = random.Random(10)
        algs = ([build_an(k) for k in range(7)]
                + [boolean_algebra(k) for k in range(5)])
        for alg in algs:
            perm = list(range(alg.n))
            rng.shuffle(perm)
            copy = relabelled(alg, perm)
            assert_isomorphism(alg, copy, find_isomorphism(alg, copy))
            assert_isomorphism(copy, alg, find_isomorphism(copy, alg))

    def test_equal_invariants_not_isomorphic(self):
        # the 6-cycle and two triangles: 2-regular on 6 vertices, so both
        # have the same sorted invariants, and they are not isomorphic
        cycle = graph_algebra(6, [(x, (x + 1) % 6) for x in range(6)])
        triangles = graph_algebra(6, [(0, 1), (1, 2), (2, 0),
                                      (3, 4), (4, 5), (5, 3)])
        assert sorted(_fingerprints(cycle)) == sorted(_fingerprints(triangles))
        assert len(set(_fingerprints(cycle))) == 2
        assert not naive_isomorphic(cycle, triangles)
        assert find_isomorphism(cycle, triangles) is None
        assert find_isomorphism(triangles, cycle) is None
        copy = relabelled(cycle, [0, 3, 5, 1, 4, 2])
        assert naive_isomorphic(cycle, copy)
        assert_isomorphism(cycle, copy, find_isomorphism(cycle, copy))

    def test_forced_map_is_checked(self, corpus7):
        # a fusion cell x.y = v changed to w, none of them x or y, and y not
        # neg x, keeps every element's invariants; where those single out
        # every element, the one candidate map fails at that cell
        checked = 0
        for alg in corpus7:
            prints = _fingerprints(alg)
            if len(set(prints)) < alg.n:
                continue
            cell = next(((x, y, w) for x in range(alg.n)
                         for y in range(alg.n) for w in range(alg.n)
                         if y != alg.neg[x]
                         and len({x, y, w, alg.fusion[x][y]}) == 4), None)
            if cell is None:
                continue
            x, y, w = cell
            fusion = [row[:] for row in alg.fusion]
            fusion[x][y] = w
            other = FiniteInRL(alg.names, alg.one, alg.neg, alg.join, fusion)
            assert _fingerprints(other) == prints
            assert not naive_isomorphic(alg, other)
            assert find_isomorphism(alg, other) is None
            assert find_isomorphism(other, alg) is None
            checked += 1
        assert checked == 2

    def test_forced_map_checks_neg(self, corpus7):
        # neg changed at two elements, keeping every element's invariants:
        # where those single out every element, the one candidate map is
        # the identity, which keeps join, fusion and the unit but not neg
        checked = 0
        for alg in corpus7:
            prints = _fingerprints(alg)
            if len(set(prints)) < alg.n:
                continue
            other = next((o for o in neg_variants(alg)
                          if _fingerprints(o) == prints), None)
            if other is None:
                continue
            assert not naive_isomorphic(alg, other)
            assert find_isomorphism(alg, other) is None
            assert find_isomorphism(other, alg) is None
            checked += 1
        assert checked == 6

    def test_builds_no_order_mask(self):
        masks = {"_lat", "_mon", "lat_up", "lat_dn", "mon_up", "mon_dn"}
        for alg in (build_an(3), boolean_algebra(3)):
            a = FiniteInRL(alg.names, alg.one, alg.neg, alg.join, alg.fusion)
            b = relabelled(alg, list(reversed(range(alg.n))))
            assert find_isomorphism(a, b) is not None
            assert not masks & set(vars(a))
            assert not masks & set(vars(b))

    def test_search_deeper_than_the_recursion_limit(self):
        # boolean_algebra(8)'s 256 elements fall in 9 invariant classes, so
        # the search places all 256, one depth each
        alg = boolean_algebra(8)
        perm = list(range(alg.n))
        random.Random(8).shuffle(perm)
        copy = relabelled(alg, perm)
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            m = find_isomorphism(alg, copy)
        finally:
            sys.setrecursionlimit(old)
        assert_isomorphism(alg, copy, m)

    def test_leaves_no_cyclic_garbage(self):
        # the search's closure must not keep a and b alive until the cycle
        # collector runs
        gc.collect()
        gc.disable()
        try:
            a, b = build_an(2), build_an(2)
            assert find_isomorphism(a, b) is not None
            del a, b
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSubalgebra:
    def test_unit_generates_bounds(self, a1):
        got = subalgebra_generated(a1, [])
        assert {a1.names[x] for x in got} == {"0", "1"}

    @pytest.mark.parametrize("seed", [-1, 4])
    def test_rejects_seed_outside_the_carrier(self, seed):
        with pytest.raises(ValueError, match="no element has id %d" % seed):
            subalgebra_generated(boolean_algebra(2), [seed])

    def test_monotone_and_idempotent(self, a1):
        seed = [a1.element("a")]
        first = subalgebra_generated(a1, seed)
        wider = subalgebra_generated(a1, seed + [a1.element("c")])
        assert first <= wider
        assert subalgebra_generated(a1, list(first)) == first

    def test_single_generator_spans_family_member(self):
        alg = build_an(2)
        got = subalgebra_generated(alg, [alg.element("x_0")])
        assert got == set(range(alg.n))
