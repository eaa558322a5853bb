import os
import sys

import pytest

from rlat import FiniteInRL
from rlat.cli import run
from rlat.fileformat import (ParseError, dot_export, emit, emit_gluing,
                             load_algebra, parse, parse_gluing, write_tree)
from rlat.decompose import Leaf, Node, decompose, reassemble
from rlat.generate import boolean_algebra, build_an
from rlat.gluing import GluingSpec, build_spec, glue

TINY = ("elements 0 1\none 1\nneg 1 0\n"
        "join 0 1\njoin 1 1\nfusion 0 0\nfusion 0 1\n")


class TestParse:
    def test_round_trip_fixture_bytes(self, fixdir):
        for fname in ("a1.rlat", "sample_lower.rlat", "sample_upper.rlat"):
            text = (fixdir / fname).read_text(encoding="utf-8")
            assert emit(parse(text)) == text

    def test_round_trip_corpus(self, corpus6):
        for alg in corpus6.algebras:
            assert parse(emit(alg)) == alg

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + TINY.replace("one 1", "one 1\n# mid")
        assert parse(text) == parse(TINY)

    def test_seven_line_minimal_file(self):
        assert emit(boolean_algebra(1)) == TINY
        assert len(TINY.splitlines()) == 7

    def test_emit_injective_on_corpus(self, corpus6):
        texts = [emit(g) for g in corpus6.algebras]
        assert len(set(texts)) == len(texts)

    def test_unknown_token(self):
        with pytest.raises(ParseError) as exc:
            parse(TINY.replace("neg 1 0", "neg 1 x"))
        assert "x" in str(exc.value)

    def test_first_undeclared_token_named_with_its_line(self):
        for text, line in ((TINY.replace("one 1", "one y"), "line 2"),
                           (TINY.replace("join 1 1", "join y x"), "line 5")):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == line + ": undeclared element 'y'"

    def test_ragged_table(self):
        with pytest.raises(ParseError) as exc:
            parse(TINY.replace("join 1 1\n", "join 1\n"))
        assert exc.value.lineno == 5

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse(TINY.replace("one 1\n", ""))

    def test_duplicate_section(self):
        with pytest.raises(ParseError):
            parse(TINY + "one 0\n")

    def test_duplicate_element_token(self):
        with pytest.raises(ParseError):
            parse(TINY.replace("elements 0 1", "elements 0 0"))

    def test_unknown_section(self):
        with pytest.raises(ParseError) as exc:
            parse(TINY + "meet 0 0\n")
        assert "line 8" in str(exc.value)

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            parse(TINY + "join 0 1\n")

    @pytest.mark.parametrize("old, new, message", [
        ("one 1", "one 1 0", "line 2: section 'one' needs exactly one token"),
        ("neg 1 0", "neg 1", "line 3: section 'neg' needs 2 tokens, got 1"),
    ])
    def test_wrong_token_count(self, old, new, message):
        with pytest.raises(ParseError) as exc:
            parse(TINY.replace(old, new))
        assert str(exc.value) == message


class TestGluingSpecFile:
    def test_round_trip_fixture_bytes(self, fixdir):
        text = (fixdir / "sample.gspec").read_text(encoding="utf-8")
        assert emit_gluing(parse_gluing(text)) == text

    def test_parse_fields(self, fixdir):
        sf = parse_gluing((fixdir / "sample.gspec").read_text(encoding="utf-8"))
        assert sf.lower_ref == "sample_lower.rlat"
        assert sf.upper_ref == "sample_upper.rlat"
        assert (sf.a, sf.b) == ("a", "b")
        assert ("1_u", "b") in sf.pairs

    def test_missing_scalar_section(self, fixdir):
        text = (fixdir / "sample.gspec").read_text(encoding="utf-8")
        with pytest.raises(ParseError):
            parse_gluing(text.replace("a a\n", ""))

    @pytest.mark.parametrize("text, message", [
        ("lower x\nupper y\na a\nb b\nlower z\nphi a -> b\n",
         "line 5: duplicate section 'lower'"),
        ("lower x\nupper y\na a c\nb b\nphi a -> b\n",
         "line 3: section 'a' needs exactly one token"),
        ("lower x\nupper y\na a\nb b\n", "line 1: missing section 'phi'"),
    ])
    def test_malformed_sections(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_gluing(text)
        assert str(exc.value) == message

    def test_malformed_pair(self):
        with pytest.raises(ParseError):
            parse_gluing("lower x\nupper y\na a\nb b\nphi a 0_v\n")

    def test_duplicate_phi_key(self, fixdir):
        sf = parse_gluing((fixdir / "sample.gspec").read_text(encoding="utf-8"))
        lower = load_algebra(str(fixdir / sf.lower_ref))
        upper = load_algebra(str(fixdir / sf.upper_ref))
        dup = type(sf)(sf.lower_ref, sf.upper_ref, sf.a, sf.b,
                       sf.pairs + (("a", "v"),))
        with pytest.raises(ValueError):
            build_spec(dup, lower, upper)

    def test_unknown_name_in_spec(self, fixdir):
        sf = parse_gluing((fixdir / "sample.gspec").read_text(encoding="utf-8"))
        lower = load_algebra(str(fixdir / sf.lower_ref))
        upper = load_algebra(str(fixdir / sf.upper_ref))
        bad = type(sf)(sf.lower_ref, sf.upper_ref, "zzz", sf.b, sf.pairs)
        with pytest.raises(ValueError):
            build_spec(bad, lower, upper)


class TestLoadAlgebra:
    def test_plain_file(self, fixdir, a1):
        assert load_algebra(str(fixdir / "a1.rlat")) == a1

    def test_recursive_spec(self, fixdir, sample_spec):
        alg = load_algebra(str(fixdir / "sample.gspec"))
        assert alg == glue(sample_spec).result

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_algebra(str(tmp_path / "absent.rlat"))

    def test_cycle_detected(self, tmp_path):
        loop = tmp_path / "loop.gspec"
        loop.write_text("lower loop.gspec\nupper loop.gspec\n"
                        "a a\nb b\nphi a -> b\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_algebra(str(loop))
        assert "circular" in str(exc.value)

    def test_deep_cycle_detected(self, tmp_path):
        depth = 1200
        for i in range(depth):
            (tmp_path / ("g%d.gspec" % i)).write_text(
                "lower g%d.gspec\nupper u.rlat\na a\nb b\nphi a -> b\n"
                % ((i + 1) % depth), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_algebra(str(tmp_path / "g0.gspec"))
        assert "circular reference through" in str(exc.value)
        assert str(exc.value).endswith("g0.gspec")

    def test_spec_used_twice_is_not_circular(self, tmp_path, fixdir):
        sample = fixdir / "sample.gspec"
        top = tmp_path / "twice.gspec"
        top.write_text("lower %s\nupper %s\na 1_b\nb 1_b\nphi 1_b -> 1_b\n"
                       % (sample, sample), encoding="utf-8")
        # both references load; the gluing itself is what fails
        with pytest.raises(ValueError) as exc:
            load_algebra(str(top))
        assert "gluing spec" in str(exc.value)


def two(i):
    """The two-element algebra with level-i names."""
    return FiniteInRL(["0_%d" % i, "1_%d" % i], 1, [1, 0], [[0, 1], [1, 1]],
                      [[0, 0], [0, 1]])


class TestDeepTree:
    """A chain deeper than a recursion limit lowered to the stack in use:
    each level glues two(i) on top, with a = the lower unit and b = 0_i."""

    def chain(self, tmp_path):
        """The limit, the level count, the chain as a tree of Leaf and Node
        and as its glued algebra, with g<i>.gspec files over b<i>.rlat."""
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = depth + 50
        levels = limit + 10
        (tmp_path / "b0.rlat").write_text(emit(two(0)), encoding="utf-8")
        tree = Leaf(two(0))
        expected = two(0)
        for i in range(1, levels + 1):
            up = two(i)
            (tmp_path / ("b%d.rlat" % i)).write_text(emit(up),
                                                     encoding="utf-8")
            lower = "g%d.gspec" % (i - 1) if i > 1 else "b0.rlat"
            (tmp_path / ("g%d.gspec" % i)).write_text(
                "lower %s\nupper b%d.rlat\na 1_%d\nb 0_%d\nphi 1_%d -> 0_%d\n"
                % (lower, i, i - 1, i, i - 1, i), encoding="utf-8")
            pairs = (("1_%d" % (i - 1), "0_%d" % i),)
            tree = Node(None, None, "1_%d" % (i - 1), "0_%d" % i, pairs, tree,
                        Leaf(up))
            expected = glue(GluingSpec(expected, up, expected.one, 0,
                                       {expected.one: 0})).result
        assert expected.n == 2 * levels + 2
        return limit, levels, tree, expected

    def test_valid_chain_glues_without_recursion(self, tmp_path):
        limit, levels, tree, expected = self.chain(tmp_path)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            loaded = load_algebra(str(tmp_path / ("g%d.gspec" % levels)))
            rebuilt = reassemble(tree)
        finally:
            sys.setrecursionlimit(old)
        assert loaded == expected
        assert rebuilt == expected

    def test_chain_decomposes_and_writes_without_recursion(self, tmp_path,
                                                           capsys):
        limit, levels, tree, expected = self.chain(tmp_path)
        (tmp_path / "chain.rlat").write_text(emit(expected), encoding="utf-8")
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            split_tree = decompose(expected)
            written = write_tree(tree, str(tmp_path / "written"))
            code = run(["decompose", str(tmp_path / "chain.rlat"),
                        "--out", str(tmp_path / "cli")])
        finally:
            sys.setrecursionlimit(old)
        out = capsys.readouterr().out.splitlines()
        assert len(list(split_tree.leaves())) == levels + 1
        assert reassemble(split_tree) == expected
        assert written[:3] == [("t.gspec", "node"), ("t0.gspec", "node"),
                               ("t00.gspec", "node")]
        assert load_algebra(str(tmp_path / "written" / "t.gspec")) == expected
        assert code == 0
        assert out[0].startswith("node t: ")
        assert len(out) == 2 * (2 * levels + 1)   # a line per part and file
        assert load_algebra(str(tmp_path / "cli" / "t.gspec")) == expected


class TestWriteTree:
    def test_leaf_round_trip(self, tmp_path):
        alg = boolean_algebra(2)
        files = write_tree(decompose(alg), str(tmp_path))
        assert files == [("t.rlat", "leaf")]
        assert load_algebra(str(tmp_path / "t.rlat")) == alg

    def test_node_round_trip(self, tmp_path, a1):
        tree = decompose(a1)
        files = write_tree(tree, str(tmp_path))
        names = [f for f, _ in files]
        assert names[0] == "t.gspec"
        rebuilt = load_algebra(str(tmp_path / "t.gspec"))
        assert rebuilt == reassemble(tree)

    def test_family_member_round_trip(self, tmp_path):
        alg = build_an(2)
        tree = decompose(alg)
        write_tree(tree, str(tmp_path))
        rebuilt = load_algebra(str(tmp_path / "t.gspec"))
        assert sorted(rebuilt.names) == sorted(alg.names)
        assert rebuilt == reassemble(tree)


class TestNameLimit:
    """Names grow by one character per level, so a deep enough chain of
    nodes has names that the directory cannot hold. The deepest names,
    "t" + levels zeros + ".gspec" or ".rlat", are levels + 6 bytes long."""

    def chain(self, levels):
        tree = Leaf(two(0))
        for i in range(1, levels + 1):
            tree = Node(None, None, "1_%d" % (i - 1), "0_%d" % i,
                        (("1_%d" % (i - 1), "0_%d" % i),), tree, Leaf(two(i)))
        return tree

    def test_refuses_a_name_past_the_limit_and_writes_nothing(self,
                                                              tmp_path):
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        tree = self.chain(limit - 5)
        out = tmp_path / "deep"
        with pytest.raises(ValueError, match="limit of %d bytes" % limit):
            write_tree(tree, str(out))
        assert list(out.iterdir()) == []

    def test_writes_names_at_the_limit(self, tmp_path):
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        written = write_tree(self.chain(limit - 6), str(tmp_path))
        assert max(len(name) for name, _ in written) == limit
        assert len(written) == 2 * (limit - 6) + 1
        assert len(list(tmp_path.iterdir())) == len(written)


class TestDotExport:
    def test_fixture_lattice_diagram(self, a1):
        text = dot_export(a1, "lattice")
        lines = text.splitlines()
        assert lines[0] == "digraph lattice {"
        assert lines[-1] == "}"
        nodes = [l for l in lines if l.endswith(";") and "->" not in l
                 and l != "  rankdir=BT;"]
        edges = [l for l in lines if "->" in l]
        assert len(nodes) == 10
        assert len(edges) == 13

    def test_two_element_monoidal(self):
        text = dot_export(boolean_algebra(1), "monoidal")
        edges = [l for l in text.splitlines() if "->" in l]
        assert edges == ['  "0" -> "1";']

    def test_boolean_orders_agree_up_to_header(self):
        alg = boolean_algebra(2)
        lat = dot_export(alg, "lattice").splitlines()
        mon = dot_export(alg, "monoidal").splitlines()
        assert lat[0] != mon[0]
        assert lat[1:] == mon[1:]

    def test_names_are_quoted(self):
        from rlat import FiniteInRL
        alg = FiniteInRL(['z\\"', "1"], 1, [1, 0],
                         [[0, 1], [1, 1]], [[0, 0], [0, 1]])
        out = dot_export(alg, "lattice")
        assert '"z\\\\\\""' in out

    def test_unknown_order_rejected(self, a1):
        with pytest.raises(ValueError):
            dot_export(a1, "sideways")
