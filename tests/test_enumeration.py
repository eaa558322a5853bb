import gc
import hashlib

import pytest

import rlat.search
from oracles import associative_unit_zero_tables, naive_isomorphic
from rlat import enumerate_up_to_iso, find_isomorphism, validate
from rlat.fileformat import emit
from rlat.generate import boolean_algebra, build_an
from rlat.search import SIZE_CAP

GOLDEN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4}


class TestCorpus:
    def test_golden_counts(self, corpus6):
        assert corpus6.counts == GOLDEN_COUNTS
        assert corpus6.max_size == 6
        assert len(corpus6.algebras) == sum(GOLDEN_COUNTS.values())

    def test_every_member_validates(self, corpus6):
        for alg in corpus6.algebras:
            assert validate(alg).ok

    def test_pairwise_non_isomorphic(self, corpus6):
        algs = corpus6.algebras
        for i in range(len(algs)):
            for j in range(i + 1, len(algs)):
                # an oracle independent of find_isomorphism, which the
                # enumerator itself deduplicates with
                assert not naive_isomorphic(algs[i], algs[j])

    def test_deterministic(self):
        first = enumerate_up_to_iso(4)
        second = enumerate_up_to_iso(4)
        assert [emit(g) for g in first.algebras] \
            == [emit(g) for g in second.algebras]

    def test_leaves_no_cyclic_garbage(self):
        # the search's closure must not keep its tables and
        # candidates alive until the cycle collector runs
        gc.collect()
        gc.disable()
        try:
            enumerate_up_to_iso(4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_output_unchanged(self, corpus6):
        # pins the emitted size-6 corpus byte for byte
        text = "".join(emit(g) for g in corpus6.algebras)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "87d5347ff3db97edfeae72bc69fdde60ed43c8f44ca861492657acf54b24aee9"

    def test_known_members_present(self, corpus6):
        for probe in (boolean_algebra(1), boolean_algebra(2), build_an(0)):
            hits = [g for g in corpus6.algebras
                    if g.n == probe.n and find_isomorphism(probe, g)]
            assert len(hits) == 1

    def test_size7_files_are_distinct_members(self, corpus7):
        sevens = [g for g in corpus7 if g.n == 7]
        assert len(sevens) == 4
        for i, g in enumerate(sevens):
            assert validate(g).ok
            for h in sevens[i + 1:]:
                assert not naive_isomorphic(g, h)

    def test_trivial_member(self, corpus6):
        ones = [g for g in corpus6.algebras if g.n == 1]
        assert len(ones) == 1
        assert ones[0].one == 0 and ones[0].neg == [0]


class TestFill:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_reaches_exactly_the_associative_tables(self, monkeypatch, n):
        # the fill's incremental check prunes a partial table only when
        # a decided triple fails: it must reach every complete table that
        # a full triple loop accepts, each once, and no other
        reached = []
        monkeypatch.setattr(
            rlat.search, "_orders_for_fusion",
            lambda n, names, neg, fusion, found:
                reached.append(tuple(map(tuple, fusion))))
        rlat.search._enumerate_size(n)
        assert len(reached) == len(set(reached))
        assert set(reached) == associative_unit_zero_tables(n)


class TestBounds:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_up_to_iso(0)

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            enumerate_up_to_iso(9)
        with pytest.raises(ValueError, match="exceeds cap %d" % SIZE_CAP):
            enumerate_up_to_iso(SIZE_CAP + 1)


class TestNaiveAgreement:
    def test_counts_match(self, naive4, corpus6):
        got = {n: len(models) for n, models in naive4.items()}
        assert got == {n: GOLDEN_COUNTS[n] for n in range(1, 5)}

    def test_members_match_one_to_one(self, naive4, corpus6):
        for n, models in naive4.items():
            mine = [g for g in corpus6.algebras if g.n == n]
            for m in models:
                hits = [g for g in mine if naive_isomorphic(m, g)]
                assert len(hits) == 1
