"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with -v (or -s) to see the per-criterion lines; each test collects its
sub-check failures and asserts none remain, so a red test names exactly what
broke.
"""

import time

from oracles import (naive_congruences, naive_isomorphic,
                     semilattice_distributivity_witness)
from rlat import FiniteInRL, find_isomorphism, subalgebra_generated, validate
from rlat.congruence import congruence_lattice
from rlat.core import bits
from rlat.decompose import decompose, find_atoms, reassemble, split
from rlat.fileformat import emit, emit_gluing, load_algebra, parse, parse_gluing
from rlat.generate import build_an
from rlat.gluing import glue
from rlat.partition import join_incompatibility_witness, partition
from rlat.props import is_lattice_distributive, is_semilinear
from theorems import block_bounds, elementary_properties, verify_partition


def _verdict(num, label, failures):
    status = "pass" if not failures else "FAIL: " + "; ".join(failures)
    print("criterion %d (%s): %s" % (num, label, status))
    assert not failures, failures


def _detected(names, one, neg, join, fusion):
    try:
        cand = FiniteInRL(names, one, neg, join, fusion)
    except ValueError:
        return True
    return not validate(cand).ok


def test_criterion_01_fixture_validation(a1):
    failures = []
    t0 = time.perf_counter()
    if not validate(a1).ok:
        failures.append("fixture fails an axiom")
    if not elementary_properties(a1).ok:
        failures.append("fixture fails an elementary property")
    n = a1.n
    missed = 0
    for tname in ("join", "fusion"):
        base = getattr(a1, tname)
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == base[i][j]:
                        continue
                    t = [row[:] for row in base]
                    t[i][j] = v
                    jt = t if tname == "join" else a1.join
                    ft = t if tname == "fusion" else a1.fusion
                    if not _detected(a1.names, a1.one, a1.neg, jt, ft):
                        missed += 1
    for i in range(n):
        for v in range(n):
            if v != a1.neg[i]:
                ng = list(a1.neg)
                ng[i] = v
                if not _detected(a1.names, a1.one, ng, a1.join, a1.fusion):
                    missed += 1
    if missed:
        failures.append("%d single-cell mutations went undetected" % missed)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append("took %.2fs, budget is 1s" % elapsed)
    _verdict(1, "fixture validation", failures)


def test_criterion_02_partition_reproduction(a1):
    failures = []
    p = partition(a1)
    got = {(frozenset(a1.names[x] for x in b.elements), a1.names[b.bottom])
           for b in p.blocks}
    expect = {(frozenset({"bot", "top", "a", "-a"}), "bot"),
              (frozenset({"b", "-b", "c", "-c"}), "-c"),
              (frozenset({"0", "1"}), "0")}
    if got != expect:
        failures.append("blocks or bottoms differ: %r" % (got,))
    if not verify_partition(a1, p).ok:
        failures.append("partition checks fail")
    _verdict(2, "partition reproduction", failures)


def test_criterion_03_negative_witnesses(a1):
    failures = []
    if is_lattice_distributive(a1).holds:
        failures.append("lattice distributivity unexpectedly holds")
    v = is_semilinear(a1)
    if v.holds or tuple(a1.names[i] for i in v.witness) != ("a", "-b"):
        failures.append("semilinearity witness is not (a, -b)")
    p = partition(a1)
    top, a, nc = (a1.element(s) for s in ("top", "a", "-c"))
    if p.block_of[top] != p.block_of[a]:
        failures.append("top and a are not in one block")
    if p.block_of[a1.join[nc][top]] == p.block_of[a1.join[nc][a]]:
        failures.append("joining -c does not separate the blocks")
    w = join_incompatibility_witness(a1, p)
    if w is None:
        failures.append("no join incompatibility witness found")
    else:
        x, y, z = w
        if (p.block_of[x] != p.block_of[y]
                or p.block_of[a1.join[z][x]] == p.block_of[a1.join[z][y]]):
            failures.append("returned witness does not certify")
    _verdict(3, "negative witnesses", failures)


def test_criterion_04_gluing_golden(a1, sample_spec):
    failures = []
    if find_isomorphism(build_an(1), a1) is None:
        failures.append("glued block chain is not isomorphic to the fixture")
    out = glue(sample_spec)
    if out.n != 24:
        failures.append("glued result has %d elements" % out.n)
    if not validate(out).ok:
        failures.append("glued result fails validation")
    _verdict(4, "gluing golden test", failures)


def test_criterion_05_round_trip(corpus6):
    failures = []
    t0 = time.perf_counter()
    subjects = [("corpus %d/%s" % (alg.n, i), alg)
                for i, alg in enumerate(corpus6.algebras)]
    subjects += [("an(%d)" % n, build_an(n)) for n in range(6)]
    for label, alg in subjects:
        tree = decompose(alg)
        for leaf in tree.leaves():
            lp = partition(leaf.algebra)
            if len(lp.blocks) != 1:
                failures.append("%s: leaf with %d blocks"
                                % (label, len(lp.blocks)))
            if not verify_partition(leaf.algebra, lp).ok:
                failures.append("%s: leaf block is not Boolean" % label)
        if find_isomorphism(reassemble(tree), alg) is None:
            failures.append("%s: reassembly is not isomorphic" % label)
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append("took %.1fs, budget is 120s" % elapsed)
    _verdict(5, "decompose/reassemble round trip", failures)


def test_criterion_06_congruence_theorem(corpus6):
    failures = []
    for i, alg in enumerate(corpus6.algebras):
        con = congruence_lattice(alg)
        cone = list(bits(alg.neg_cone))
        if len(con.congruences) != len(cone):
            failures.append("corpus %d/%s: %d congruences for cone of %d"
                            % (alg.n, i, len(con.congruences), len(cone)))
        k = len(con.congruences)
        for s in range(k):
            for t in range(k):
                finer = all(con.congruences[s].relation[x]
                            & ~con.congruences[t].relation[x] == 0
                            for x in range(alg.n))
                if finer != alg.leq(con.generators[t], con.generators[s]):
                    failures.append("corpus %d/%s: refinement does not "
                                    "mirror the cone order" % (alg.n, i))
        if alg.n <= 5:
            if len(naive_congruences(alg)) != len(con.congruences):
                failures.append("corpus %d/%s: naive count differs"
                                % (alg.n, i))
    _verdict(6, "congruence theorem", failures)


def test_criterion_07_distributive_semilattice(corpus6):
    failures = []
    for i, alg in enumerate(corpus6.algebras):
        if semilattice_distributivity_witness(alg.fusion):
            failures.append("corpus %d/%s fails" % (alg.n, i))
    for n in range(7):
        if semilattice_distributivity_witness(build_an(n).fusion):
            failures.append("an(%d) fails" % n)
    _verdict(7, "distributive monoidal semilattice", failures)


def test_criterion_08_family_witness():
    failures = []
    for n in range(7):
        alg = build_an(n)
        if alg.n != 4 * n + 6:
            failures.append("an(%d) has %d elements" % (n, alg.n))
        if not validate(alg).ok:
            failures.append("an(%d) fails validation" % n)
        gen = subalgebra_generated(alg, [alg.element("x_0")])
        if gen != set(range(alg.n)):
            failures.append("an(%d) is not generated by x_0" % n)
    _verdict(8, "single-generated family", failures)


def _lemma_failures(alg):
    out = []
    n = alg.n
    rng = range(n)
    jn, fu, mt, ng = alg.join, alg.fusion, alg.meet, alg.neg
    cone = list(bits(alg.neg_cone))
    for a in cone:
        na = ng[a]
        bot_a = fu[a][na]
        top_a = jn[a][na]
        for x in rng:
            # absorption
            if alg.leq(x, na) and mt[jn[x][a]][na] != jn[x][bot_a]:
                out.append("absorption(1) at a=%s x=%s"
                           % (alg.names[a], alg.names[x]))
            if alg.mleq(a, x):
                if mt[jn[ng[x]][a]][na] != ng[x] or jn[mt[x][na]][a] != x:
                    out.append("absorption(2) at a=%s x=%s"
                               % (alg.names[a], alg.names[x]))
            for y in rng:
                if alg.leq(x, top_a) and alg.leq(y, top_a):
                    if jn[fu[x][y]][a] != fu[jn[x][a]][jn[y][a]]:
                        out.append("fusion preservation(1) at a=%s"
                                   % alg.names[a])
                if alg.mleq(a, x) and alg.mleq(a, y):
                    if mt[fu[x][y]][na] != fu[mt[x][na]][mt[y][na]]:
                        out.append("fusion preservation(2) at a=%s"
                                   % alg.names[a])
        interval_imp = {x for x in rng
                        if alg.leq(a, x) and alg.leq(x, alg.imp[a][alg.one])}
        interval_top = {x for x in rng
                        if alg.leq(a, x) and alg.leq(x, top_a)}
        upset = {x for x in rng if alg.mleq(a, x)}
        if not interval_imp == interval_top == upset:
            out.append("join-closed interval at a=%s" % alg.names[a])
        pointed = all(alg.mleq(a, ng[x]) for x in rng if alg.mleq(a, x))
        if pointed != alg.leq(a, alg.zero):
            out.append("pointed subuniverse at a=%s" % alg.names[a])
    for x in rng:
        bx, tx = block_bounds(alg, x)
        for y in rng:
            by, ty = block_bounds(alg, y)
            bz, tz = block_bounds(alg, fu[x][y])
            if fu[bx][by] != bz or fu[tx][ty] != tz:
                out.append("block bounds at x=%s y=%s"
                           % (alg.names[x], alg.names[y]))
    return out


def _split_failures(alg):
    out = []
    atoms = find_atoms(alg)
    for c in atoms:
        s = split(alg, c)
        lo, up = s.spec.lower, s.spec.upper
        phi = s.spec.phi
        dom = [x for x in range(lo.n) if lo.mleq(s.spec.a, x)]
        img = [y for y in range(up.n) if up.mleq(y, s.spec.b)]
        if sorted(phi) != dom or sorted(phi.values()) != sorted(img):
            out.append("phi domain/image at atom %s" % alg.names[c])
        if len(set(phi.values())) != len(phi):
            out.append("phi not injective at atom %s" % alg.names[c])
        for x, y in phi.items():
            back = alg.fusion[alg.element(up.names[y])][c]
            if alg.names[back] != lo.names[x]:
                out.append("phi inverse at atom %s" % alg.names[c])
        glued = glue(s.spec)
        if glued.n != lo.n + up.n:
            out.append("glued size at atom %s" % alg.names[c])
        for z in range(lo.n):
            if glued.leq(z, glued.zero) != lo.leq(z, lo.zero):
                out.append("glued zero at atom %s" % alg.names[c])
        distributive = [semilattice_distributivity_witness(t.fusion) is None
                        for t in (lo, up, glued)]
        if distributive == [True, True, False]:
            out.append("distributivity lost at atom %s" % alg.names[c])
    return out


def test_criterion_09_lemma_suites(corpus6):
    failures = []
    for i, alg in enumerate(corpus6.algebras):
        for msg in _lemma_failures(alg) + _split_failures(alg):
            failures.append("corpus %d/%s: %s" % (alg.n, i, msg))
    _verdict(9, "lemma suites", failures)


def test_criterion_10_oracle_agreement(naive4, corpus6, fixdir):
    failures = []
    for n, models in naive4.items():
        mine = [g for g in corpus6.algebras if g.n == n]
        if len(models) != len(mine):
            failures.append("size %d: naive %d vs pruned %d"
                            % (n, len(models), len(mine)))
            continue
        for m in models:
            if sum(1 for g in mine if naive_isomorphic(m, g)) != 1:
                failures.append("size %d: no unique pruned match" % n)
    for alg in corpus6.algebras:
        text = emit(alg)
        if emit(parse(text)) != text:
            failures.append("emit/parse not byte-stable on corpus member")
    for fname in ("a1.rlat", "sample_lower.rlat", "sample_upper.rlat"):
        text = (fixdir / fname).read_text(encoding="utf-8")
        if emit(parse(text)) != text:
            failures.append("%s does not re-render byte-identically" % fname)
    gtext = (fixdir / "sample.gspec").read_text(encoding="utf-8")
    if emit_gluing(parse_gluing(gtext)) != gtext:
        failures.append("gluing spec does not re-render byte-identically")
    if load_algebra(str(fixdir / "a1.rlat")) != parse(
            (fixdir / "a1.rlat").read_text(encoding="utf-8")):
        failures.append("loader and parser disagree")
    _verdict(10, "oracle agreement and byte stability", failures)
