"""Seeded token-level mutations of the shipped files, run through every
command that reads one algebra file: no exception escapes `rlat.cli.run`,
and each exit code is 0, 1 or 2 (see the cli module docstring)."""

import random
import shutil

import pytest

from rlat import FiniteInRL
from rlat.cli import run
from rlat.fileformat import ParseError, parse

COMMANDS = (["check"], ["partition"], ["congruences"], ["decompose"],
            ["prop", "distr-lattice"])


def mutant(text, rng):
    """text with one token dropped, duplicated or swapped with another, or
    one line truncated at a character; lines are rejoined by single
    spaces."""
    lines = [line.split() for line in text.splitlines()]
    cells = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    i, j = rng.choice(cells)
    edit = rng.choice(("drop", "duplicate", "swap", "truncate"))
    if edit == "drop":
        del lines[i][j]
    elif edit == "duplicate":
        lines[i].insert(j, lines[i][j])
    elif edit == "swap":
        k, m = rng.choice(cells)
        lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    else:
        line = " ".join(lines[i])
        lines[i] = line[:rng.randrange(len(line))].split()
    return "".join(" ".join(line) + "\n" for line in lines)


def test_mutated_fixtures(fixdir, tmp_path, capsys):
    # the spec's operand files sit beside its mutants, unchanged
    for ref in ("sample_lower.rlat", "sample_upper.rlat"):
        shutil.copy(fixdir / ref, tmp_path / ref)
    sources = sorted(fixdir.glob("**/*.rlat")) + [fixdir / "sample.gspec"]
    rng = random.Random(21)
    codes = set()
    for _ in range(60):
        source = rng.choice(sources)
        path = tmp_path / ("mutant" + source.suffix)
        text = mutant(source.read_text(encoding="utf-8"), rng)
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            argv = command + [str(path)]
            try:
                code = run(argv)
            except Exception as exc:
                pytest.fail("%r raised %r on:\n%s" % (argv, exc, text))
            assert code in (0, 1, 2), (argv, text)
            codes.add(code)
        capsys.readouterr()
    # some mutants parse, and some of those fail an axiom or a property
    assert codes == {0, 1, 2}


def test_parse_checks_what_the_constructor_checks(fixdir):
    # parse builds its algebra unchecked (FiniteInRL._of): each mutant it
    # accepts, the checked constructor accepts too, with the same fields
    sources = sorted(fixdir.glob("**/*.rlat"))
    rng = random.Random(21)
    parsed = 0
    for _ in range(600):
        text = mutant(rng.choice(sources).read_text(encoding="utf-8"), rng)
        try:
            alg = parse(text)
        except ParseError:
            continue
        parsed += 1
        assert FiniteInRL(alg.names, alg.one, alg.neg, alg.join,
                          alg.fusion) == alg, text
    assert parsed > 30
