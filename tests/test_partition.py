import hashlib
import random

import pytest

from rlat import FiniteInRL
from rlat.core import Rejected
from rlat.generate import boolean_algebra, build_an
from rlat.partition import (BooleanBlock, Partition, block,
                            join_incompatibility_witness, partition)
from theorems import block_bounds, verify_partition


def names_of(alg, ids):
    return {alg.names[x] for x in ids}


class TestFixturePartition:
    def test_exact_blocks(self, a1):
        p = partition(a1)
        got = {frozenset(names_of(a1, b.elements)) for b in p.blocks}
        assert got == {frozenset({"bot", "a", "-a", "top"}),
                       frozenset({"b", "-b", "c", "-c"}),
                       frozenset({"0", "1"})}

    def test_exact_bottoms_and_tops(self, a1):
        p = partition(a1)
        got = {(a1.names[b.bottom], a1.names[b.top]) for b in p.blocks}
        assert got == {("bot", "top"), ("-c", "c"), ("0", "1")}

    def test_skeleton(self, a1):
        p = partition(a1)
        assert names_of(a1, p.skeleton) == {"bot", "-c", "0"}

    def test_verify_all_clauses(self, a1):
        rep = verify_partition(a1, partition(a1))
        assert rep.ok
        names = {name for name, _, _ in rep.checks}
        assert "bounds are multiplicative" in names
        assert "skeleton is dual to the positive cone" in names
        assert "same-block relation respects fusion and negation" in names


class TestBlockStructure:
    def test_membership_and_constancy(self, a1):
        for x in range(a1.n):
            b = block(a1, x)
            assert x in b.elements
            for y in b.elements:
                assert block(a1, y) == b
        for x in (-1, a1.n):
            with pytest.raises(ValueError, match="no element has id"):
                block(a1, x)

    def test_block_of_indexes_blocks(self, corpus6):
        for alg in corpus6.algebras:
            p = partition(alg)
            for x in range(alg.n):
                assert x in p.blocks[p.block_of[x]].elements

    def test_boolean_algebra_is_one_block(self):
        for k in range(4):
            alg = boolean_algebra(k)
            p = partition(alg)
            assert len(p.blocks) == 1
            assert p.blocks[0].elements == tuple(range(alg.n))

    def test_family_member_block_count(self):
        alg = build_an(2)
        assert len(partition(alg).blocks) == 4

    def test_skeleton_size_matches_positive_cone(self, corpus6):
        for alg in corpus6.algebras:
            p = partition(alg)
            pos = bin(alg.lat_up[alg.one]).count("1")
            assert len(p.skeleton) == len(p.blocks) == pos

    def test_verify_passes_on_corpus(self, corpus6):
        for alg in corpus6.algebras:
            assert verify_partition(alg, partition(alg)).ok

    def test_block_cross_check(self, a1):
        # a.-a changed from bot to a: fusion no longer gives the meet, and
        # block rejects the tables at every x, as partition does
        a, na = a1.element("a"), a1.element("-a")
        fusion = [row[:] for row in a1.fusion]
        fusion[a][na] = fusion[na][a] = a
        bad = FiniteInRL(a1.names, a1.one, a1.neg, a1.join, fusion)
        for call in [partition] + [lambda m, x=x: block(m, x)
                                   for x in range(bad.n)]:
            with pytest.raises(Rejected, match="^algebra fails axiom "
                               "'fusion associative'$") as exc:
                call(bad)
            assert exc.value.subject is bad

    def test_partition_validates_once(self, a1, validate_calls):
        partition(a1)
        assert validate_calls == [a1]


class TestBlockArithmetic:
    def test_bounds_are_multiplicative(self, a1, corpus6):
        for alg in [a1] + list(corpus6.algebras):
            for x in range(alg.n):
                bx, tx = block_bounds(alg, x)
                for y in range(alg.n):
                    by, ty = block_bounds(alg, y)
                    bz, tz = block_bounds(alg, alg.fusion[x][y])
                    assert alg.fusion[bx][by] == bz
                    assert alg.fusion[tx][ty] == tz

    def test_same_block_respects_fusion_and_negation(self, a1):
        p = partition(a1)
        bo = p.block_of
        for x in range(a1.n):
            assert bo[a1.neg[x]] == bo[x]
            for u in range(a1.n):
                for v in range(a1.n):
                    if bo[u] == bo[v]:
                        assert bo[a1.fusion[x][u]] == bo[a1.fusion[x][v]]


class TestJoinIncompatibility:
    def test_fixture_blocks_are_not_join_compatible(self, a1):
        p = partition(a1)
        w = join_incompatibility_witness(a1, p)
        assert w is not None
        x, y, z = w
        assert p.block_of[x] == p.block_of[y]
        assert p.block_of[a1.join[z][x]] != p.block_of[a1.join[z][y]]
        assert tuple(a1.names[i] for i in w) == ("bot", "a", "0")

    def test_named_incompatible_triple(self, a1):
        # top and a share a block, but joining both with -c leaves the
        # results in different blocks
        p = partition(a1)
        top, a, nc = (a1.element(s) for s in ("top", "a", "-c"))
        assert p.block_of[top] == p.block_of[a]
        assert (p.block_of[a1.join[nc][top]]
                != p.block_of[a1.join[nc][a]])

    def test_no_witness_on_boolean_algebra(self):
        alg = boolean_algebra(2)
        assert join_incompatibility_witness(alg, partition(alg)) is None


def block_with(p, i, **fields):
    """p with block i's fields replaced (elements given as any sequence)."""
    blocks = list(p.blocks)
    blocks[i] = blocks[i]._replace(**fields)
    return p._replace(blocks=blocks)


def corrupted(p, rng):
    """Seeded edits of a partition: swapped, dropped or added elements, a
    wrong bottom or top, shuffled elements, a wrong block_of and skeleton
    edits. Some leave it as it was (a shuffled one-element block)."""
    n, k = len(p.block_of), len(p.blocks)
    out = []
    for _ in range(4):
        i, x = rng.randrange(k), rng.randrange(n)
        els = list(p.blocks[i].elements)
        out.append(block_with(p, i, bottom=x))
        out.append(block_with(p, i, top=x))
        out.append(block_with(p, i, elements=tuple(sorted(set(els) | {x}))))
        out.append(block_with(p, i, elements=tuple(e for e in els
                                                   if e != els[-1])))
        rng.shuffle(els)
        out.append(block_with(p, i, elements=tuple(els)))
        block_of = list(p.block_of)
        block_of[x] = rng.randrange(k)
        out.append(p._replace(block_of=block_of))
        skel = list(p.skeleton)
        out.append(p._replace(skeleton=tuple(sorted(set(skel) | {x}))))
        out.append(p._replace(skeleton=tuple(skel[1:])))
        rng.shuffle(skel)
        out.append(p._replace(skeleton=tuple(skel)))
        if k > 1:
            # swap an element of block i with one of another block j
            j = rng.choice([j for j in range(k) if j != i])
            u = rng.choice(p.blocks[i].elements)
            v = rng.choice(p.blocks[j].elements)
            q = block_with(p, i, elements=tuple(sorted(
                set(p.blocks[i].elements) - {u} | {v})))
            q = block_with(q, j, elements=tuple(sorted(
                set(p.blocks[j].elements) - {v} | {u})))
            block_of = list(p.block_of)
            block_of[u], block_of[v] = j, i
            out.append(q._replace(block_of=block_of))
    return out


def mutants(alg, rng, count):
    """Seeded single-cell changes of neg, join or fusion (join and fusion
    symmetrically), most of them non-members."""
    n = alg.n
    out = []
    for _ in range(count if n > 1 else 0):
        x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        neg = list(alg.neg)
        tables = {"join": [row[:] for row in alg.join],
                  "fusion": [row[:] for row in alg.fusion]}
        label = rng.choice(("neg", "join", "fusion"))
        if label == "neg":
            neg[x] = v
        else:
            tables[label][x][y] = tables[label][y][x] = v
        out.append(FiniteInRL(alg.names, alg.one, neg, tables["join"],
                              tables["fusion"]))
    return out


def m3_with_involution():
    """The lattice M3 (0 < a, b, c < 1) with neg swapping a and b and fixing
    c, and fusion the meet; not a member. Taken as one block with bottom 0
    and top 1, it is closed and its two orders agree, a and b are
    complements but c is not, and a ^ (b v c) = a while (a ^ b) v (a ^ c)
    = 0."""
    join = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]
    alg = FiniteInRL(["0", "a", "b", "c", "1"], 4, [4, 2, 1, 3, 0], join,
                     meet)
    return alg, Partition([BooleanBlock(0, 4, tuple(range(5)))], [0] * 5,
                          (0,))


class TestPinnedOutputs:
    """verify_partition and join_incompatibility_witness on partitions
    partition() does not build, and on non-members."""

    def test_output_unchanged(self, a1, corpus6):
        # pins every Partition, verify_partition report and
        # join_incompatibility_witness result on the set below
        rng = random.Random(12)
        algebras = ([a1] + list(corpus6.algebras)
                    + [build_an(k) for k in range(4)]
                    + [boolean_algebra(k) for k in range(5)])
        bases = [(alg, partition(alg)) for alg in algebras]
        bases.append(m3_with_involution())
        digest = hashlib.sha256()
        records = failing = 0
        for alg, p in bases:
            digest.update(repr(p).encode())
            cases = [(alg, q) for q in [p] + corrupted(p, rng)]
            cases += [(m, p) for m in mutants(alg, rng, 48)]
            for m, q in cases:
                rep = verify_partition(m, q)
                w = join_incompatibility_witness(m, q)
                digest.update(repr((rep.checks, w)).encode())
                records += 1
                failing += not rep.ok
        assert (len(bases), records, failing) == (22, 1826, 1190)
        assert digest.hexdigest() == \
            "6c99bb7c8c9ee125516d7bf365b07424fac9953a8542bea1342a2d06ca08b0d1"


def failing_clauses(alg, p):
    return {name: None if w is None else tuple(alg.names[x] for x in w)
            for name, w in verify_partition(alg, p).failures()}


class TestEachClause:
    """One hand-made corruption of a1's partition per clause, with the
    clause's exact witness. a1's blocks are 0: bot a -a top (bottom bot,
    top top), 1: -b b c -c (bottom -c, top c) and 2: 0 1, and its
    skeleton is bot -c 0."""

    def test_hand_made_corruptions(self, a1):
        p = partition(a1)
        e = a1.element

        def moved(name, i):
            block_of = list(p.block_of)
            block_of[e(name)] = i
            return p._replace(block_of=block_of)

        def skeleton(*names):
            return p._replace(skeleton=tuple(map(e, names)))

        # blocks 1 and 2 as one
        merged = Partition(
            [p.blocks[0], p.blocks[1]._replace(elements=tuple(sorted(
                p.blocks[1].elements + p.blocks[2].elements)))],
            [min(i, 1) for i in p.block_of], p.skeleton)
        cases = {
            "blocks partition the carrier":
                (block_with(p, 2, elements=(e("0"),)), None),
            "blocks are Boolean algebras":
                (block_with(p, 1, top=e("top")), ("-c",)),
            "negation is residuation into the block bottom":
                (block_with(p, 1, bottom=e("bot")), ("-b",)),
            "block bottom is constant on the block": (moved("a", 1), ("a",)),
            "bottom map is monotone in the monoidal order":
                (moved("1", 0), ("-b", "1")),
            "bounds are multiplicative": (moved("a", 1), ("a", "-b")),
            "skeleton is the down-set of zero": (skeleton("bot", "0"), None),
            "skeleton is a sublattice with maximum zero":
                (skeleton("bot", "-c", "b", "0"), ("b", "0")),
            "skeleton is distributive": (skeleton("a", "-b", "0"), ("a", "-b", "0")),
            "skeleton is dual to the positive cone":
                (skeleton("bot", "a", "0"), None),
            "block count equals positive cone size": (merged, None),
            "same-block relation respects fusion and negation":
                (moved("-a", 2), ("a", "bot")),
        }
        assert len(cases) == len(verify_partition(a1, p).checks)
        for clause, (q, witness) in cases.items():
            assert failing_clauses(a1, q).get(clause, "pass") == witness, \
                clause

    def test_block_of_naming_a_missing_block(self, a1):
        # 0 and 1 are in block 2; block_of that names no block of p fails
        # the first clause at the first such element, and ends the report
        p = partition(a1)
        block_of = list(p.block_of)
        cases = [(p._replace(blocks=p.blocks[:2]), "0"),
                 (p._replace(block_of=[-1] + block_of[1:]), "bot"),
                 (p._replace(block_of=block_of[:-1]), "top")]
        for q, name in cases:
            assert verify_partition(a1, q).checks == [
                ("blocks partition the carrier", False,
                 (a1.element(name),))]

    def test_block_outside_the_carrier(self, a1):
        # block 2 is 0 1 (ids 7 and 8); id 99 names no element
        p = partition(a1)
        for q in (block_with(p, 2, elements=(7, 8, 99)),
                  block_with(p, 2, bottom=99)):
            assert verify_partition(a1, q).checks == [
                ("blocks partition the carrier", False, (99,))]

    def test_skeleton_outside_the_carrier(self, a1):
        # the report ends at the first clause that reads the skeleton
        p = partition(a1)
        checks = verify_partition(a1, p._replace(
            skeleton=p.skeleton + (99,))).checks
        assert checks[-1] == ("skeleton is the down-set of zero", False,
                              (99,))
        assert all(ok for _, ok, _ in checks[:-1])

    def test_join_witness_with_block_of_short_of_the_carrier(self, a1):
        # top, the last element, is in no block, so not even top shares
        # a block with top: bot v top = top fails at (bot, bot, top)
        p = partition(a1)
        w = join_incompatibility_witness(a1, p._replace(
            block_of=p.block_of[:-1]))
        assert tuple(map(a1.names.__getitem__, w)) == ("bot", "bot", "top")

    def test_block_distributivity_comes_before_later_bounds(self):
        # c is not complemented, but the first element failing the block
        # laws is a, which distributes over no pair containing c
        alg, p = m3_with_involution()
        assert failing_clauses(alg, p) == {
            "blocks are Boolean algebras": ("a", "b", "c")}
