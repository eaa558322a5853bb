"""The paper's theorems re-checked on seeded random glued members.

Every finite member is a Boolean algebra or a gluing of two smaller ones.
The glued_family fixture (conftest.py) grows 55 members of sizes 1 to 48
that way, from Boolean algebras and build_an(0), with specs drawn from
oracles.glue_specs; each test checks one theorem on every member, or on
every gluing step.
"""

import random

from oracles import glued_order_failures, semilattice_distributivity_witness
from rlat import (FiniteInRL, congruence_lattice, decompose, find_atoms,
                  find_isomorphism, partition, reassemble, split, validate)
from rlat.gluing import glue
from test_core import assert_isomorphism, relabelled
from theorems import verify_partition


def cone_size(alg):
    return sum(row[alg.one] == alg.one for row in alg.join)


class TestRandomGluedMembers:
    def test_family_shape(self, glued_family):
        members, steps = glued_family
        assert len(members) == 55 and len(steps) == 50
        assert min(m.n for m in members) == 1
        assert max(m.n for m in members) == 48
        for spec, glued in steps:
            assert glued.n == spec.lower.n + spec.upper.n <= 48
            assert len(spec.phi) <= 5

    def test_members_pass_validate_and_the_block_theorem(self, glued_family):
        for alg in glued_family[0]:
            assert validate(alg).ok, alg
            rep = verify_partition(alg, partition(alg))
            assert rep.ok, (alg, rep.failures())

    def test_congruence_count_is_the_negative_cone(self, glued_family):
        for alg in glued_family[0]:
            assert len(congruence_lattice(alg).congruences) == cone_size(alg)

    def test_glued_order_has_the_four_cases(self, glued_family):
        for spec, glued in glued_family[1]:
            assert glued_order_failures(glued, spec.lower, spec.upper,
                                        spec.a, spec.b, spec.phi) == []

    def test_decompose_and_split_glue_back(self, glued_family):
        splits = 0
        for alg in glued_family[0]:
            back = reassemble(decompose(alg))
            assert_isomorphism(back, alg, find_isomorphism(back, alg))
            for c in find_atoms(alg):
                back = glue(split(alg, c).spec)
                assert_isomorphism(back, alg, find_isomorphism(back, alg))
                splits += 1
        assert splits == 51

    def test_leaves_are_the_blocks(self, glued_family):
        # each leaf holds the elements of one Boolean block, by name, and
        # each block is one leaf
        for alg in glued_family[0]:
            leaves = [frozenset(leaf.algebra.names)
                      for leaf in decompose(alg).leaves()]
            blocks = {frozenset(alg.names[x] for x in b.elements)
                      for b in partition(alg).blocks}
            assert len(leaves) == len(blocks) and set(leaves) == blocks

    def test_fusion_reduct_is_a_distributive_semilattice(self, glued_family):
        # the plain scan is O(n^4) on a chain, so it stops at 24 elements
        small = [alg for alg in glued_family[0] if alg.n <= 24]
        for alg in small:
            assert semilattice_distributivity_witness(alg.fusion) is None
        assert len(small) == 19

    def test_isomorphism_finds_relabelling_and_refuses_mutant(
            self, glued_family):
        # a fusion cell x.y = v changed to w, none of them x or y, and y not
        # neg x, keeps every element's invariants, so only the search over
        # the tables refuses the mutant
        rng = random.Random(40)
        mutants = 0
        for alg in glued_family[0]:
            perm = list(range(alg.n))
            rng.shuffle(perm)
            copy = relabelled(alg, perm)
            assert_isomorphism(alg, copy, find_isomorphism(alg, copy))
            cells = [(x, y) for x in range(alg.n) for y in range(alg.n)
                     if y != alg.neg[x] and alg.fusion[x][y] not in (x, y)]
            if not cells:
                continue
            x, y = rng.choice(cells)
            fusion = [row[:] for row in copy.fusion]
            fusion[perm[x]][perm[y]] = rng.choice(
                [w for w in range(alg.n)
                 if w not in (perm[x], perm[y], fusion[perm[x]][perm[y]])])
            mutant = FiniteInRL(copy.names, copy.one, copy.neg, copy.join,
                                fusion)
            assert find_isomorphism(alg, mutant) is None
            mutants += 1
        assert mutants == 46
