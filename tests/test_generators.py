import hashlib

import pytest

from rlat import subalgebra_generated, validate
from rlat.fileformat import emit
from rlat.generate import SIZE_CAP, boolean_algebra, build_an
from rlat.partition import partition


class TestBooleanAlgebra:
    def test_sizes_and_validity(self):
        for k in range(4):
            alg = boolean_algebra(k)
            assert alg.n == 1 << k
            assert validate(alg).ok
            assert len(partition(alg).blocks) == 1

    def test_names_and_tables(self):
        alg = boolean_algebra(2)
        assert alg.names == ["0", "a0", "a1", "1"]
        assert alg.names[alg.one] == "1"
        for x in range(alg.n):
            for y in range(alg.n):
                assert alg.fusion[x][y] == alg.meet[x][y]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            boolean_algebra(-1)

    def test_cap(self):
        with pytest.raises(ValueError):
            boolean_algebra(SIZE_CAP.bit_length())


class TestFamily:
    def test_sizes_and_validity(self):
        for n in range(7):
            alg = build_an(n)
            assert alg.n == 4 * n + 6
            assert validate(alg).ok

    def test_unit_and_zero_names(self):
        alg = build_an(3)
        assert alg.names[alg.one] == "1"
        assert alg.names[alg.zero] == "0"

    def test_generated_by_first_coordinate(self):
        for n in range(5):
            alg = build_an(n)
            got = subalgebra_generated(alg, [alg.element("x_0")])
            assert got == set(range(alg.n))

    def test_block_count(self):
        for n in range(4):
            assert len(partition(build_an(n)).blocks) == n + 2

    def test_level_names_present(self):
        alg = build_an(2)
        for i in range(3):
            for stem in ("0_%d", "x_%d", "-x_%d", "1_%d"):
                assert stem % i in alg.names

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_an(-1)

    def test_cap(self):
        with pytest.raises(ValueError):
            build_an((SIZE_CAP - 6) // 4 + 1)

    def test_output_unchanged(self):
        # pins emit(build_an(k)) for k = 0..12, byte for byte
        digest = hashlib.sha256()
        for k in range(13):
            digest.update(emit(build_an(k)).encode())
        assert digest.hexdigest() == \
            "8353120ca200346ffed75c0855048874cdaae21f32bc807b1a06ad502a02a08c"
