import hashlib
import itertools
import os

import pytest

from oracles import (glue_specs, glued_order_failures,
                     semilattice_distributivity_witness)
from rlat import FiniteInRL, find_isomorphism, validate
from rlat.core import Rejected
from rlat.decompose import decompose, find_atoms, reassemble, split
from rlat.fileformat import _covers, load_algebra, write_tree
from rlat.generate import boolean_algebra, build_an
from rlat import gluing
from rlat.gluing import GluingSpec, Leaf, _glue_tree, glue, validate_gluing
from rlat.props import is_semilinear


def chain_spec():
    """Stack one two-element algebra on top of another."""
    lo = boolean_algebra(1)
    up = boolean_algebra(1)
    return GluingSpec(lo, up, lo.element("1"), up.element("0"),
                      {lo.element("1"): up.element("0")})


class TestValidateGluing:
    def test_shipped_spec_passes(self, sample_spec):
        rep = validate_gluing(sample_spec)
        assert rep.ok
        names = {name for name, _, _ in rep.checks}
        assert "phi preserves fusion" in names
        assert "phi preserves join" in names
        assert "phi sends a join lower-zero to the block bottom of b" in names

    def test_minimal_chain_spec_passes(self):
        assert validate_gluing(chain_spec()).ok

    def test_out_of_range_reference(self):
        s = chain_spec()
        bad = GluingSpec(s.lower, s.upper, 99, s.b, s.phi)
        rep = validate_gluing(bad)
        assert rep.failures()[0][0] == \
            "spec references elements of both carriers"

    def test_a_below_zero_rejected(self):
        s = chain_spec()
        zero = s.lower.element("0")
        bad = GluingSpec(s.lower, s.upper, zero, s.b, {zero: s.b})
        rep = validate_gluing(bad)
        assert not rep.ok
        assert any(n == "a is not below the lower zero"
                   for n, _ in rep.failures())

    def test_wrong_phi_image(self):
        s = chain_spec()
        top = s.upper.element("1")
        bad = GluingSpec(s.lower, s.upper, s.a, top, {s.a: top})
        rep = validate_gluing(bad)
        assert any(n == "phi image is the monoidal down-set of b"
                   for n, _ in rep.failures())

    def test_wrong_phi_domain(self):
        s = chain_spec()
        bad = GluingSpec(s.lower, s.upper, s.a, s.b, {})
        rep = validate_gluing(bad)
        assert any(n == "phi domain is the monoidal up-set of a"
                   for n, _ in rep.failures())

    def test_scrambled_phi_breaks_fusion_preservation(self, sample_spec):
        s = sample_spec
        lo_a, lo_1a = s.lower.element("a"), s.lower.element("1_a")
        phi = dict(s.phi)
        phi[lo_a], phi[lo_1a] = phi[lo_1a], phi[lo_a]
        rep = validate_gluing(GluingSpec(s.lower, s.upper, s.a, s.b, phi))
        assert any(n == "phi preserves fusion" for n, _ in rep.failures())

    def test_report_unchanged(self, a1, corpus6, sample_spec):
        # pins the report lines and checks over mutants of every spec at
        # hand: each choice of a, each choice of b, each retarget of one
        # phi pair, each dropped pair and ids out of range
        specs = [sample_spec, chain_spec()]
        for alg in [a1] + list(corpus6.algebras) + [build_an(k)
                                                    for k in range(4)]:
            specs += [split(alg, c).spec for c in find_atoms(alg)]
        digest = hashlib.sha256()
        count = total = 0
        for s in specs:
            A, B, phi = s.lower, s.upper, s.phi
            mutants = [s]
            mutants += [GluingSpec(A, B, a, s.b, phi) for a in range(A.n)]
            mutants += [GluingSpec(A, B, s.a, b, phi) for b in range(B.n)]
            for x in sorted(phi):
                mutants += [GluingSpec(A, B, s.a, s.b, {**phi, x: y})
                            for y in range(B.n) if y != phi[x]]
                mutants.append(GluingSpec(A, B, s.a, s.b,
                                          {k: v for k, v in phi.items()
                                           if k != x}))
            mutants += [GluingSpec(A, B, A.n, s.b, phi),
                        GluingSpec(A, B, -1, s.b, phi),
                        GluingSpec(A, B, s.a, s.b, {**phi, A.n: s.b}),
                        GluingSpec(A, B, s.a, s.b, {**phi, s.a: -1})]
            for m in mutants:
                rep = validate_gluing(m)
                digest.update("\n".join(rep.lines()).encode() + b"\0"
                              + repr(rep.checks).encode() + b"\0")
                count += not rep.ok
                total += 1
        assert len(specs) == 15
        assert (count, total) == (234, 279)
        assert digest.hexdigest() == \
            "54938c6afead8626ada36000aaaa9ce49fc83fcfded64622121936996864d2ca"

    def test_glue_raises_on_bad_spec(self):
        s = chain_spec()
        bad = GluingSpec(s.lower, s.upper, s.a, s.b, {})
        with pytest.raises(ValueError):
            glue(bad)


class TestGlueSpecs:
    def test_matches_unpruned_filter(self, corpus8):
        # every a of A, every b of B and every bijection of mon_up(a) onto
        # mon_dn(b), kept by validate_gluing alone; no other phi has the
        # domain and image that validate_gluing asks for
        def key(spec):
            assert (spec.lower, spec.upper) == (A, B)
            return spec.a, spec.b, sorted(spec.phi.items())

        pairs = bijections = valid = 0
        for A, B in itertools.product(corpus8.algebras, repeat=2):
            if A.n + B.n > 9:
                continue
            pairs += 1
            want = []
            for a, b in itertools.product(range(A.n), range(B.n)):
                dom = [x for x in range(A.n) if A.fusion[a][x] == a]
                cod = [y for y in range(B.n) if B.fusion[y][b] == y]
                if len(dom) != len(cod):
                    continue
                for image in itertools.permutations(cod):
                    bijections += 1
                    spec = GluingSpec(A, B, a, b, dict(zip(dom, image)))
                    if validate_gluing(spec).ok:
                        want.append(key(spec))
            for cap in (2, 9):
                got = [key(spec) for spec in glue_specs(A, B, cap)]
                assert got == sorted(w for w in want if len(w[2]) <= cap)
            valid += len(want)
        assert (pairs, bijections, valid) == (103, 619, 59)


class TestGlue:
    def test_chain_of_two_and_two(self):
        alg = glue(chain_spec())
        assert alg.n == 4
        assert validate(alg).ok
        assert is_semilinear(alg).holds
        # every pair comparable: a four-element chain
        assert all(alg.leq(x, y) or alg.leq(y, x)
                   for x in range(4) for y in range(4))

    def test_name_collisions_get_primed(self):
        alg = glue(chain_spec())
        assert alg.names == ["0", "1", "0'", "1'"]

    def test_layout(self, sample_spec):
        # the lower factor's tables on its ids, then the upper factor's
        # shifted by lower.n
        for spec in (chain_spec(), sample_spec):
            out, lo, up = glue(spec), spec.lower, spec.upper
            assert out.n == lo.n + up.n
            for label in ("join", "fusion"):
                rows = getattr(out, label)
                assert [row[:lo.n] for row in rows[:lo.n]] == \
                    getattr(lo, label)
                assert [row[lo.n:] for row in rows[lo.n:]] == \
                    [[lo.n + v for v in row] for row in getattr(up, label)]

    def test_shipped_spec_result(self, sample_spec):
        out = glue(sample_spec)
        assert out.n == 24
        assert validate(out).ok
        assert out.one == 12 + sample_spec.upper.one
        assert out.zero == 12 + sample_spec.upper.zero
        assert (len(_covers(out.lat_up)), len(_covers(out.mon_up))) == (38, 38)

    def test_lower_zero_agreement(self, sample_spec):
        # for lower elements, being below zero is decided inside the
        # lower factor
        out = glue(sample_spec)
        lo = sample_spec.lower
        for z in range(lo.n):
            assert out.leq(z, out.zero) == lo.leq(z, lo.zero)

    def test_preserves_monoidal_distributivity(self, sample_spec):
        for spec in (chain_spec(), sample_spec):
            for alg in (spec.lower, spec.upper, glue(spec)):
                assert semilattice_distributivity_witness(alg.fusion) is None

    def test_family_chain_matches_fixture(self, a1):
        assert find_isomorphism(build_an(1), a1) is not None


class TestGlueTree:
    def test_one_algebra_built_per_tree(self, a1, corpus6, tmp_path,
                                        built):
        # beyond the leaves it is given or parses, each fold of a tree
        # builds its result and nothing else
        for k in (0, 1, 5):
            del built[:]
            alg = build_an(k)
            assert len(built) == (k + 2) + 1 and built[-1] is alg
        subjects = ([a1, boolean_algebra(3)] + list(corpus6.algebras)
                    + [build_an(k) for k in range(4)])
        for i, alg in enumerate(subjects):
            tree = decompose(alg)
            del built[:]
            result = reassemble(tree)
            assert len(built) == 1 and built[0] is result
            # a tree of one leaf is written as a plain file and only parsed
            leaves = len(list(tree.leaves()))
            out = tmp_path / str(i)
            write_tree(tree, str(out))
            del built[:]
            root = out / ("t.gspec" if leaves > 1 else "t.rlat")
            result = load_algebra(str(root))
            assert len(built) == leaves + (leaves > 1)
            assert built[-1] is result


class TestGluingTheorem:
    """glue trusts the gluing theorem and checks nothing it builds; these
    re-check its results on every spec at hand."""

    def specs(self, a1, corpus6, sample_spec):
        yield chain_spec()
        yield sample_spec
        subjects = ([a1] + list(corpus6.algebras)
                    + [build_an(k) for k in range(4)])
        for alg in subjects:
            for c in find_atoms(alg):
                s = split(alg, c)
                assert validate(s.lower).ok
                assert validate(s.upper).ok
                yield s.spec

    def test_glued_order_has_four_cases(self, a1, corpus6, sample_spec):
        count = 0
        for spec in self.specs(a1, corpus6, sample_spec):
            assert validate_gluing(spec).ok
            out = glue(spec)
            assert glued_order_failures(out, spec.lower, spec.upper, spec.a,
                                        spec.b, spec.phi) == []
            assert validate(out).ok
            count += 1
        assert count == 15   # two specs made by hand and 13 splits


def replaced(tree, path, new):
    """tree with new(part) for the part at path, a string of "0" (lower)
    and "1" (upper) steps from the root."""
    if not path:
        return new(tree)
    side = "lower" if path[0] == "0" else "upper"
    return tree._replace(**{side: replaced(getattr(tree, side), path[1:],
                                           new)})


def non_member(alg):
    """alg with fusion cell (1, 1) set to 0, a non-member: on a block,
    x_i.x_i = 0_i is no longer idempotent."""
    fusion = [row[:] for row in alg.fusion]
    fusion[1][1] = 0
    return FiniteInRL(alg.names, alg.one, alg.neg, alg.join, fusion)


def bad_leaf(leaf):
    return Leaf(non_member(leaf.algebra))


def bad_node(node):
    return node._replace(pairs=node.pairs[:-1])


class TestTrustedTrees:
    """build_an glues a tree it built from members and valid specs and
    checks nothing; a tree handed in by a caller is checked part by part,
    and the first failing part in post-order is named."""

    def test_build_an_is_the_checked_glue_of_its_tree(self, monkeypatch):
        trees = []

        def trusted(tree, labels):
            assert labels is None
            trees.append(tree)
            return _glue_tree(tree, labels)

        monkeypatch.setattr(gluing, "_glue_tree", trusted)
        for k in range(13):
            assert build_an(k) == _glue_tree(trees[k], {})
        monkeypatch.undo()
        for k in range(65):
            assert validate(build_an(k)).ok

    # build_an(2)'s decomposition tree, in post-order: t000, t001 (leaves),
    # t00 (node), t01 (leaf), t0 (node), t1 (leaf), t (node); the message
    # names the part as reassemble does, and load_algebra puts its file's
    # path in place of "leaf" and after "gluing spec"
    LEAF = "t001.rlat", "leaf", "axiom 'fusion idempotent'"
    SPEC = "gluing spec", "'phi domain is the monoidal up-set of a'"

    @pytest.mark.parametrize("changes, first", [
        ({"001": bad_leaf}, LEAF),
        ({"0": bad_node}, ("t0.gspec",) + SPEC),
        ({"001": bad_leaf, "0": bad_node}, LEAF),
        ({"00": bad_node, "01": bad_leaf}, ("t00.gspec",) + SPEC),
    ])
    def test_checked_trees_name_their_first_failure(self, tmp_path, changes,
                                                    first):
        tree = decompose(build_an(2))
        for path, change in changes.items():
            tree = replaced(tree, path, change)
        part, label, failure = first
        with pytest.raises(Rejected) as caught:
            reassemble(tree)
        assert str(caught.value) == "%s fails %s" % (label, failure)
        write_tree(tree, str(tmp_path))
        path = os.path.join(os.path.realpath(tmp_path), part)
        label = path if label == "leaf" else label + " " + path
        with pytest.raises(Rejected) as caught:
            load_algebra(str(tmp_path / "t.gspec"))
        assert str(caught.value) == "%s fails %s" % (label, failure)

    def test_glue_names_its_first_failure(self):
        alg = build_an(2)
        spec = split(alg, alg.element("1_2")).spec
        bad = non_member(spec.lower)
        phi = dict(list(spec.phi.items())[:-1])
        cases = [
            (spec._replace(lower=bad),
             "lower factor fails axiom 'fusion associative'"),
            (spec._replace(upper=non_member(spec.upper)),
             "upper factor fails axiom 'fusion unit'"),
            (spec._replace(phi=phi),
             "gluing spec fails 'phi domain is the monoidal up-set of a'"),
            (spec._replace(lower=bad, phi=phi),
             "lower factor fails axiom 'fusion associative'"),
        ]
        for s, message in cases:
            with pytest.raises(Rejected) as caught:
                glue(s)
            assert str(caught.value) == message
