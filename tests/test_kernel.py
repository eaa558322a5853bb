"""The row kernel, rlat.kernel: where the tables switch from bytes to
lists, the join-irreducibles the distributivity scans test at, and the
module's bounds: it imports nothing from rlat, holds every branch on the
row type, and no module reads its names through rlat.core. The scans are
checked against plain loops through validate in test_core.py."""

import ast
import functools
import pathlib
import random

import rlat.kernel
from rlat import FiniteInRL, is_lattice_distributive, validate
from rlat.generate import boolean_algebra, build_an
from rlat.kernel import _join_irreducibles
from test_core import fresh, relabelled

SRC = pathlib.Path(rlat.kernel.__file__).parent
TESTS = pathlib.Path(__file__).parent


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def one_cell_mutants(alg, seed, count):
    """count seeded one-sided changes of a join cell and as many of a
    fusion cell, as (join, fusion) table pairs."""
    rng = random.Random(seed)
    n = alg.n
    for label in ("join", "fusion"):
        for _ in range(count):
            t = [row[:] for row in getattr(alg, label)]
            x, y = rng.randrange(n), rng.randrange(n)
            t[x][y] = rng.choice([v for v in range(n) if v != t[x][y]])
            yield (t, alg.fusion) if label == "join" else (alg.join, t)


class TestKernelSwitch:
    """Up to 256 elements every id fits in a byte and the tables are read
    as bytes; above, as lists. Both give the same reports and witnesses."""

    def test_switch_at_256_elements(self):
        alg = boolean_algebra(8)
        assert alg.n == 256
        assert [type(row) for row in alg._rows[0]] == [bytes] * 256
        big = build_an(63)
        assert big.n == 258 and big._rows == (big.join, big.fusion)

    def test_kernels_agree_at_256_elements(self, monkeypatch):
        alg = boolean_algebra(8)
        # a relabelled an(62), n = 254, whose lattice is not distributive
        an = build_an(62)
        perm = list(range(an.n))
        random.Random(34).shuffle(perm)
        an = relabelled(an, perm)
        cases = [(alg.join, alg.fusion), *one_cell_mutants(alg, 34, 2)]

        def verdicts():
            reports = [validate(FiniteInRL(alg.names, alg.one, alg.neg,
                                           join, fusion)).checks
                       for join, fusion in cases]
            return reports, [tuple(is_lattice_distributive(fresh(a)))
                             for a in (alg, an)]

        by_bytes = verdicts()
        monkeypatch.setattr(rlat.kernel, "_BYTE_IDS", 0)
        assert verdicts() == by_bytes
        reports, lattice = by_bytes
        assert [all(ok for _, ok, _ in r) for r in reports] == \
            [True] + [False] * 4
        assert lattice[0] == (True, None) and not lattice[1][0]

    def test_reports_above_256_elements(self):
        # one join and one fusion mutant of an(63), n = 258; the reports
        # were recorded before the byte kernel existed
        alg = build_an(63)
        rng = random.Random(259)
        reports = []
        for label, symmetric in (("join", False), ("fusion", True)):
            t = [row[:] for row in getattr(alg, label)]
            x, y = rng.randrange(alg.n), rng.randrange(alg.n)
            t[x][y] = rng.choice([v for v in range(alg.n) if v != t[x][y]])
            if symmetric:
                t[y][x] = t[x][y]
            tables = {"join": alg.join, "fusion": alg.fusion, label: t}
            reports.append(validate(FiniteInRL(
                alg.names, alg.one, alg.neg, tables["join"],
                tables["fusion"])).failures())
        assert reports == [
            [("join commutative", (20, 46)),
             ("join associative", (20, 24, 46)),
             ("residuation", (20, 45)),
             ("fusion distributes over join", (45, 20, 46))],
            [("fusion associative", (42, 120, 252)),
             ("residuation", (120, 252)),
             ("fusion distributes over join", (120, 37, 252))]]


def plain_join_irreducibles(jn):
    """The z that are not the join of the elements strictly below them,
    the minimal elements among them, by plain loops."""
    out = []
    for z in range(len(jn)):
        below = [y for y in range(len(jn)) if jn[y][z] == z and y != z]
        v = below[0] if below else None
        for y in below[1:]:
            v = jn[v][y]
        if v != z:
            out.append(z)
    return out


class TestJoinIrreducibles:
    def test_match_plain_loops(self, corpus7):
        algs = (corpus7 + [build_an(k) for k in range(5)]
                + [boolean_algebra(k) for k in range(6)])
        for alg in algs:
            gens = _join_irreducibles(alg.lat_dn)
            assert gens == plain_join_irreducibles(alg.join), alg
            # every element is the join of the generators below it
            for z in range(alg.n):
                below = [g for g in gens if alg.leq(g, z)]
                assert functools.reduce(
                    lambda u, v: alg.join[u][v], below) == z, (alg, z)

    def test_counts_on_the_families(self):
        for k in range(7):
            assert len(_join_irreducibles(boolean_algebra(k).lat_dn)) == k + 1
        assert len(_join_irreducibles(build_an(16).lat_dn)) == 37


KERNEL_NAMES = {node.name if isinstance(node, ast.FunctionDef)
                else node.targets[0].id
                for node in parsed(SRC / "kernel.py").body
                if isinstance(node, (ast.FunctionDef, ast.Assign))}


class TestModule:
    def test_imports_nothing_from_rlat(self):
        # absolute imports are of the standard library (test_dependencies),
        # so a relative one is the only way in
        assert [node.module for node in ast.walk(parsed(SRC / "kernel.py"))
                if isinstance(node, ast.ImportFrom) and node.level] == []

    def test_holds_every_branch_on_the_row_type(self):
        # the switch, _BYTE_IDS, and every isinstance(..., bytes) test
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(parsed(path)):
                if isinstance(node, ast.Name) and node.id == "_BYTE_IDS" or (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and getattr(node.args[1], "id", None) == "bytes"):
                    found.append(path.name)
        assert set(found) == {"kernel.py"}

    def test_no_kernel_name_is_read_through_core(self):
        # from rlat.core import name, rlat.core.name, core.name, and
        # monkeypatch.setattr(rlat.core, "name", ...)
        def is_core(node):
            return getattr(node, "attr", getattr(node, "id", "")) == "core"

        assert {"_BYTE_IDS", "_rows_of", "_first_ne"} <= KERNEL_NAMES
        read = []
        for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
            for node in ast.walk(parsed(path)):
                if isinstance(node, ast.ImportFrom) and (
                        node.module == "rlat.core"
                        or node.level == 1 and node.module == "core"):
                    read += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.Attribute) and is_core(node.value):
                    read.append((path.name, node.attr))
                elif isinstance(node, ast.Call) and len(node.args) > 1 \
                        and is_core(node.args[0]) \
                        and isinstance(node.args[1], ast.Constant):
                    read.append((path.name, node.args[1].value))
        assert [r for r in read if r[1] in KERNEL_NAMES] == []
