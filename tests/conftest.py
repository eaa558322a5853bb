import pathlib

import pytest

from rlat import enumerate_up_to_iso
from rlat.fileformat import load_algebra

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixdir():
    return FIXTURES


@pytest.fixture(scope="session")
def a1():
    return load_algebra(str(FIXTURES / "a1.rlat"))


@pytest.fixture(scope="session")
def corpus6():
    return enumerate_up_to_iso(6)


@pytest.fixture(scope="session")
def corpus8():
    """The members of size <= 8 up to isomorphism, to the enum size cap;
    enumerating them takes about 3 s, so they are built once."""
    return enumerate_up_to_iso(8)


@pytest.fixture(scope="session")
def corpus7(corpus6):
    """The members of size <= 7 up to isomorphism: the size-6 corpus and
    the four members of size 7 that `rlat enum 7 --out` writes (files
    n7_0..n7_3). They stay files, though enumerating size 7 takes well
    under a second, because they are the pinned output of `rlat enum 7`
    that TestEnum in test_cli.py compares byte for byte."""
    sevens = sorted((FIXTURES / "size7").glob("n7_*.rlat"))
    return list(corpus6.algebras) + [load_algebra(str(p)) for p in sevens]


@pytest.fixture(scope="session")
def sample_spec():
    from rlat.fileformat import parse_gluing
    from rlat.gluing import build_spec
    text = (FIXTURES / "sample.gspec").read_text(encoding="utf-8")
    sf = parse_gluing(text)
    lower = load_algebra(str(FIXTURES / sf.lower_ref))
    upper = load_algebra(str(FIXTURES / sf.upper_ref))
    return build_spec(sf, lower, upper)


@pytest.fixture
def validate_calls(monkeypatch):
    """The algebras check_member validates from here on, in call order."""
    from rlat import core
    calls, validate = [], core.validate

    def counted(alg):
        calls.append(alg)
        return validate(alg)

    monkeypatch.setattr(core, "validate", counted)
    return calls


@pytest.fixture
def built(monkeypatch):
    """Every FiniteInRL built from here on, in build order, by the checked
    constructor or by FiniteInRL._of, which rlat builds its own through."""
    from rlat import FiniteInRL
    algebras, init, of = [], FiniteInRL.__init__, FiniteInRL._of

    def counted_init(self, *tables):
        init(self, *tables)
        algebras.append(self)

    def counted_of(cls, *tables):
        algebras.append(of(*tables))
        return algebras[-1]

    monkeypatch.setattr(FiniteInRL, "__init__", counted_init)
    monkeypatch.setattr(FiniteInRL, "_of", classmethod(counted_of))
    return algebras


@pytest.fixture(scope="session")
def naive4():
    from oracles import naive_enumerate
    return naive_enumerate(4)


@pytest.fixture(scope="session")
def order_corpus(a1, corpus6):
    """Members and non-members for checks that read the order masks: a1 and
    its symmetric single-cell join or fusion mutants (cells x <= y), the
    same mutants of build_an(1) and boolean_algebra(3), the size-6 corpus,
    build_an(0..3) and boolean_algebra(0..3)."""
    from rlat import FiniteInRL
    from rlat.generate import boolean_algebra, build_an
    out = [a1]
    for alg in (a1, build_an(1), boolean_algebra(3)):
        n = alg.n
        for label in ("join", "fusion"):
            base = getattr(alg, label)
            for x in range(n):
                for y in range(x, n):
                    for v in range(n):
                        if v == base[x][y]:
                            continue
                        t = [row[:] for row in base]
                        t[x][y] = t[y][x] = v
                        tables = {"join": alg.join, "fusion": alg.fusion,
                                  label: t}
                        out.append(FiniteInRL(alg.names, alg.one, alg.neg,
                                              tables["join"],
                                              tables["fusion"]))
    out.extend(corpus6.algebras)
    out.extend(build_an(k) for k in range(4))
    out.extend(boolean_algebra(k) for k in range(4))
    return out
