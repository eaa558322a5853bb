import gc
import hashlib
import io
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from rlat import (AXIOM_NAMES, FiniteInRL, find_isomorphism, validate,
                  validate_gluing)
from rlat.cli import run
from rlat.fileformat import dot_export, emit, load_algebra, parse
from rlat.generate import boolean_algebra, build_an

ROOT = pathlib.Path(__file__).resolve().parent.parent


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def a1_path(fixdir):
    return str(fixdir / "a1.rlat")


class TestCheck:
    def test_fixture_passes(self, capsys, a1_path):
        code, out, err = invoke(capsys, "check", a1_path)
        assert code == 0
        assert out.splitlines() == ["%s: pass" % n for n in AXIOM_NAMES]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(emit(build_an(1))))
        code, out, _ = invoke(capsys, "check", "-")
        assert code == 0

    def test_axiom_failure_exits_one(self, capsys, tmp_path):
        text = emit(boolean_algebra(2)).replace("neg 1 a1 a0 0",
                                                "neg 0 a0 a1 1")
        bad = tmp_path / "bad.rlat"
        bad.write_text(text, encoding="utf-8")
        code, out, _ = invoke(capsys, "check", str(bad))
        assert code == 1
        assert "residuation: FAIL" in out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "check", str(tmp_path / "no.rlat"))
        assert code == 2
        assert err.startswith("error:")

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rlat"
        bad.write_text("elements a a\n", encoding="utf-8")
        code, _, err = invoke(capsys, "check", str(bad))
        assert code == 2
        assert err.startswith("error: line")


class TestPartition:
    def test_fixture_output(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "partition", a1_path)
        assert code == 0
        assert out.splitlines() == [
            "block bottom=bot top=top elements=bot a -a top",
            "block bottom=-c top=c elements=-b b c -c",
            "block bottom=0 top=1 elements=0 1",
            "skeleton bot -c 0",
        ]

    def test_rejects_non_member(self, capsys, tmp_path):
        text = emit(boolean_algebra(2)).replace("neg 1 a1 a0 0",
                                                "neg 0 a0 a1 1")
        bad = tmp_path / "bad.rlat"
        bad.write_text(text, encoding="utf-8")
        code, out, _ = invoke(capsys, "partition", str(bad))
        assert code == 1
        assert "FAIL" in out


class TestCongruences:
    def test_fixture_output(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "congruences", a1_path)
        assert code == 0
        assert out.splitlines() == [
            "congruences 4",
            "generator=bot classes=1",
            "generator=-c classes=3",
            "generator=0 classes=9",
            "generator=1 classes=10",
        ]


class TestGlue:
    def test_shipped_spec(self, capsys, fixdir):
        code, out, _ = invoke(capsys, "glue", str(fixdir / "sample.gspec"))
        assert code == 0
        alg = parse(out)
        assert alg.n == 24
        assert alg == load_algebra(str(fixdir / "sample.gspec"))

    def test_stdin_spec_resolves_against_cwd(self, capsys, monkeypatch,
                                             fixdir):
        _, expected, _ = invoke(capsys, "glue", str(fixdir / "sample.gspec"))
        monkeypatch.chdir(fixdir)
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            (fixdir / "sample.gspec").read_text(encoding="utf-8")))
        assert invoke(capsys, "glue", "-") == (0, expected, "")

    def test_spec_not_named_gspec(self, capsys, fixdir, tmp_path):
        # glue reads its argument as a spec whatever its name; the files
        # under it are still read by extension
        _, expected, _ = invoke(capsys, "glue", str(fixdir / "sample.gspec"))
        for name in ("sample_lower.rlat", "sample_upper.rlat"):
            shutil.copy(fixdir / name, tmp_path / name)
        shutil.copy(fixdir / "sample.gspec", tmp_path / "sample.txt")
        assert invoke(capsys, "glue", str(tmp_path / "sample.txt")) \
            == (0, expected, "")

    def test_invalid_spec_exits_two(self, capsys, tmp_path):
        (tmp_path / "lo.rlat").write_text(emit(boolean_algebra(1)),
                                          encoding="utf-8")
        (tmp_path / "up.rlat").write_text(emit(boolean_algebra(1)),
                                          encoding="utf-8")
        spec = tmp_path / "bad.gspec"
        spec.write_text("lower lo.rlat\nupper up.rlat\na 0\nb 0\n"
                        "phi 0 -> 0\nphi 1 -> 0\n", encoding="utf-8")
        assert invoke(capsys, "glue", str(spec)) == (
            2, "", "error: gluing spec %s fails 'a is not below the lower "
            "zero'\n" % spec)

    @pytest.mark.parametrize("role", ["lower", "upper"])
    def test_non_member_operand_is_named(self, capsys, fixdir, tmp_path,
                                         role):
        for name in ("sample.gspec", "sample_lower.rlat",
                     "sample_upper.rlat"):
            shutil.copy(fixdir / name, tmp_path / name)
        path = tmp_path / ("sample_%s.rlat" % role)
        alg = parse(path.read_text(encoding="utf-8"))
        fusion = [row[:] for row in alg.fusion]
        fusion[0][1] = fusion[1][0] = 2 if fusion[0][1] != 2 else 3
        bad = FiniteInRL(alg.names, alg.one, alg.neg, alg.join, fusion)
        rep = validate(bad)
        assert not rep.ok
        path.write_text(emit(bad), encoding="utf-8")
        spec = str(tmp_path / "sample.gspec")
        # exit 2 and one line naming the operand's file and first failure
        assert invoke(capsys, "glue", spec) == (
            2, "", "error: %s fails axiom %r\n" % (
                os.path.join(os.path.realpath(tmp_path), path.name),
                rep.failures()[0][0]))

    # a1's tree: t.gspec over t0.gspec (over t00.rlat, t01.rlat) and t1.rlat
    @pytest.mark.parametrize("file, edit", [
        ("t1.rlat", ("fusion 0 1", "fusion 1 1")),
        ("t00.rlat", ("fusion bot a -a top", "fusion bot a -a -a")),
        ("t.gspec", ("b 0", "b 1")),
        ("t0.gspec", ("phi top -> b\n", "")),
    ], ids=["leaf-depth1", "leaf-depth2", "spec-depth0", "spec-depth1"])
    def test_glue_and_check_agree(self, capsys, a1_path, tmp_path, file,
                                  edit):
        invoke(capsys, "decompose", a1_path, "--out", str(tmp_path))
        path = tmp_path / file
        path.write_text(path.read_text(encoding="utf-8").replace(*edit),
                        encoding="utf-8")
        spec = str(tmp_path / "t.gspec")
        code, out, err = invoke(capsys, "glue", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and file in err
        assert err.count("\n") == 1 and "fails" in err
        assert invoke(capsys, "check", spec) == (code, out, err)

    def test_deep_chain_to_missing_file_exits_two(self, capsys, tmp_path):
        # deeper than the interpreter's default recursion limit
        depth = 1200
        (tmp_path / "u.rlat").write_text(emit(boolean_algebra(0)),
                                         encoding="utf-8")
        for i in range(depth):
            lower = "g%d.gspec" % (i + 1) if i + 1 < depth else "missing.rlat"
            (tmp_path / ("g%d.gspec" % i)).write_text(
                "lower %s\nupper u.rlat\na 1\nb 1\nphi 1 -> 1\n" % lower,
                encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(tmp_path / "g0.gspec"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "missing.rlat" in err
        assert "Traceback" not in err


class TestDecomposeReassemble:
    def test_fixture_tree_description(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "decompose", a1_path)
        assert code == 0
        assert out.splitlines() == [
            "node t: atom=c complement=1 a=c b=0",
            "node t0: atom=top complement=c a=-a b=b",
            "leaf t00: 4 elements",
            "leaf t01: 4 elements",
            "leaf t1: 2 elements",
        ]

    def test_out_dir_and_reassemble(self, capsys, a1_path, a1, tmp_path):
        code, out, _ = invoke(capsys, "decompose", a1_path,
                              "--out", str(tmp_path))
        assert code == 0
        wrote = [l.split()[1] for l in out.splitlines()
                 if l.startswith("wrote ")]
        assert "t.gspec" in wrote
        code, out, _ = invoke(capsys, "reassemble", str(tmp_path))
        assert code == 0
        rebuilt = parse(out)
        assert find_isomorphism(rebuilt, a1) is not None

    def test_reassemble_single_leaf(self, capsys, tmp_path):
        alg = boolean_algebra(2)
        (tmp_path / "alg.rlat").write_text(emit(alg), encoding="utf-8")
        invoke(capsys, "decompose", str(tmp_path / "alg.rlat"),
               "--out", str(tmp_path))
        code, out, _ = invoke(capsys, "reassemble", str(tmp_path))
        assert code == 0
        assert parse(out) == alg

    def test_non_member_leaf_exits_two(self, capsys, a1_path, tmp_path):
        invoke(capsys, "decompose", a1_path, "--out", str(tmp_path))
        spec = str(tmp_path / "t.gspec")
        count = 0
        for leaf in ("t00.rlat", "t01.rlat", "t1.rlat"):
            path = tmp_path / leaf
            text = path.read_text(encoding="utf-8")
            alg = parse(text)
            n = alg.n
            for x in range(n):
                for y in range(n):
                    for v in range(n):
                        if v == alg.fusion[x][y]:
                            continue
                        fusion = [row[:] for row in alg.fusion]
                        fusion[x][y] = fusion[y][x] = v
                        bad = FiniteInRL(alg.names, alg.one, alg.neg,
                                         alg.join, fusion)
                        if validate(bad).ok:
                            continue
                        count += 1
                        path.write_text(emit(bad), encoding="utf-8")
                        for argv in (("reassemble", str(tmp_path)),
                                     ("check", spec), ("glue", spec)):
                            code, out, err = invoke(capsys, *argv)
                            assert (code, out) == (2, ""), argv
                            assert err.startswith("error: ")
                            assert leaf in err and "fails axiom" in err
            path.write_text(text, encoding="utf-8")
        # every ordered cell (x, y), each other value: 4 + 48 + 48
        assert count == 100

    def test_output_unchanged(self, capsys, a1, corpus6, tmp_path):
        # pins, byte for byte, `decompose --out` stdout and files,
        # `reassemble` stdout and the emitted leaves of the library's tree
        from rlat.decompose import decompose
        algebras = ([a1] + list(corpus6.algebras)
                    + [build_an(k) for k in range(6)]
                    + [boolean_algebra(k) for k in range(4)])
        digest = hashlib.sha256()
        for i, alg in enumerate(algebras):
            src, out_dir = tmp_path / ("%d.rlat" % i), tmp_path / str(i)
            src.write_text(emit(alg), encoding="utf-8")
            for argv in (("decompose", str(src), "--out", str(out_dir)),
                         ("reassemble", str(out_dir))):
                code, out, err = invoke(capsys, *argv)
                assert (code, err) == (0, "")
                digest.update(out.encode())
            for path in sorted(out_dir.iterdir()):
                digest.update(path.name.encode() + b"\0"
                              + path.read_bytes())
            for leaf in decompose(alg).leaves():
                digest.update(emit(leaf.algebra).encode())
        assert len(algebras) == 22
        assert digest.hexdigest() == \
            "19f11d20ce1d89fb978390a14818ff0a8764dc0566674fc2982ae41ccae01f41"

    def test_out_replaces_the_root_of_the_other_kind(self, capsys,
                                                      a1_path, tmp_path):
        # a1's tree has a node at its root (t.gspec) and boolean_algebra(2)'s
        # is one leaf (t.rlat): reassemble rebuilds the tree written last
        b_path = tmp_path / "b.rlat"
        b_path.write_text(invoke(capsys, "gen", "bool", "2")[1],
                          encoding="utf-8")
        out = tmp_path / "D"
        for src, root in ((a1_path, "t.gspec"), (str(b_path), "t.rlat"),
                          (a1_path, "t.gspec")):
            assert invoke(capsys, "decompose", src, "--out", str(out))[0] == 0
            assert [p.name for p in out.glob("t.*")] == [root]
            code, text, err = invoke(capsys, "reassemble", str(out))
            assert (code, err) == (0, "")
            assert find_isomorphism(parse(text), load_algebra(src)) \
                is not None

    def test_out_removes_every_file_of_an_earlier_tree(self, capsys, a1_path,
                                                       tmp_path):
        # a1's tree is five files and boolean_algebra(2)'s the one leaf
        # t.rlat; files whose names no tree writes stay
        b_path = tmp_path / "b.rlat"
        b_path.write_text(invoke(capsys, "gen", "bool", "2")[1],
                          encoding="utf-8")
        out = tmp_path / "D"
        out.mkdir()
        others = ["notes.txt", "t01.txt", "t0x.rlat", "u0.gspec"]
        for name in others:
            (out / name).write_text("kept\n", encoding="utf-8")
        for src, tree in ((a1_path, ["t.gspec", "t0.gspec", "t00.rlat",
                                     "t01.rlat", "t1.rlat"]),
                          (str(b_path), ["t.rlat"])):
            assert invoke(capsys, "decompose", src, "--out", str(out))[0] == 0
            assert sorted(p.name for p in out.iterdir()) == \
                sorted(tree + others)
        assert all((out / name).read_text(encoding="utf-8") == "kept\n"
                   for name in others)

    def test_refused_out_prints_nothing(self, capsys, a1_path, tmp_path,
                                        monkeypatch):
        # a refused --out writes before anything is printed: stdout stays
        # empty and DIR is left as it was found
        taken = tmp_path / "file"
        taken.write_text("kept\n", encoding="utf-8")
        code, out, err = invoke(capsys, "decompose", a1_path,
                                "--out", str(taken))
        assert (code, out) == (2, "") and "File exists" in err
        assert taken.read_text(encoding="utf-8") == "kept\n"
        # a1's longest file names, t00.rlat and t01.rlat, are 8 bytes
        monkeypatch.setattr(os, "pathconf", lambda path, name: 7)
        old = tmp_path / "old"
        old.mkdir()
        (old / "t.rlat").write_text("kept\n", encoding="utf-8")
        for out_dir in (old, tmp_path / "new", tmp_path / "a" / "b"):
            code, out, err = invoke(capsys, "decompose", a1_path,
                                    "--out", str(out_dir))
            assert (code, out) == (2, "") and "tree too deep" in err
        assert [p.name for p in old.iterdir()] == ["t.rlat"]
        assert (old / "t.rlat").read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "old"]

    @pytest.mark.parametrize("argv", [("decompose", "{F}", "--out", ""),
                                      ("enum", "2", "--out", "")])
    def test_empty_out_refused(self, capsys, a1_path, tmp_path, monkeypatch,
                               argv):
        # an empty --out is a directory name that cannot be made
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *(a.format(F=a1_path) for a in argv))
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_leaf_non_member_exits_two(self, capsys, fixdir, tmp_path):
        # a one-cell change of join, as a tree's only file: refused as a
        # non-member leaf under t.gspec is, with nothing on stdout
        text = (fixdir / "sample_lower.rlat").read_text(encoding="utf-8")
        root = tmp_path / "t.rlat"
        root.write_text(text.replace("\njoin 0_w w -w", "\njoin 0_w 1_w -w"),
                        encoding="utf-8")
        assert invoke(capsys, "check", str(root))[0] == 1
        code, out, err = invoke(capsys, "reassemble", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: %s fails axiom 'join commutative'\n" \
            % os.path.realpath(root)

    @pytest.mark.parametrize("make", [lambda a1: a1,
                                      lambda a1: build_an(3),
                                      lambda a1: boolean_algebra(2)],
                             ids=["a1", "an3", "bool2"])
    def test_printed_stems_are_the_files_written(self, capsys, a1, tmp_path,
                                                 make):
        src, out_dir = tmp_path / "alg.rlat", tmp_path / "D"
        src.write_text(emit(make(a1)), encoding="utf-8")
        code, out, err = invoke(capsys, "decompose", str(src),
                                "--out", str(out_dir))
        assert (code, err) == (0, "")
        lines = [line.split() for line in out.splitlines()]
        files = sorted(p.name for p in out_dir.iterdir())
        assert sorted(w[1] for w in lines if w[0] == "wrote") == files
        assert sorted(w[1].rstrip(":") for w in lines
                      if w[0] in ("leaf", "node")) \
            == sorted(name.rpartition(".")[0] for name in files)

    def test_reassemble_empty_dir(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "reassemble", str(tmp_path))
        assert code == 2
        assert "no t.gspec or t.rlat" in err


class TestOneCheckPerInput:
    """Each command validates each algebra it reads once and checks each
    gluing spec once."""

    @pytest.fixture()
    def inputs(self, capsys, tmp_path):
        (tmp_path / "an8.rlat").write_text(emit(build_an(8)),
                                           encoding="utf-8")
        (tmp_path / "two.rlat").write_text(emit(boolean_algebra(1)),
                                           encoding="utf-8")
        (tmp_path / "top.gspec").write_text(
            "lower an8.rlat\nupper two.rlat\na 1\nb 0\nphi 1 -> 0\n",
            encoding="utf-8")
        invoke(capsys, "decompose", str(tmp_path / "an8.rlat"),
               "--out", str(tmp_path / "tree"))
        return tmp_path

    @pytest.mark.parametrize("argv, checks", [
        (("check", "an8.rlat"), (1, 0)),
        (("partition", "an8.rlat"), (1, 0)),
        (("congruences", "an8.rlat"), (1, 0)),
        (("decompose", "an8.rlat"), (1, 0)),
        (("prop", "distr-semilattice", "an8.rlat"), (1, 0)),
        (("prop", "semilinear", "an8.rlat"), (1, 0)),
        (("dot", "an8.rlat"), (1, 0)),
        (("glue", "top.gspec"), (2, 1)),
        # one per leaf file and one per spec file: build_an(8) has 10
        # blocks
        (("reassemble", "tree"), (10, 9)),
        (("prop", "distr-lattice", "an8.rlat"), (1, 0)),
    ])
    def test_calls_per_command(self, capsys, monkeypatch, inputs, argv,
                               checks):
        calls = {validate: 0, validate_gluing: 0}
        for fn in calls:
            def counting(*args, fn=fn):
                calls[fn] += 1
                return fn(*args)

            for key, module in list(sys.modules.items()):
                if key.startswith("rlat") and getattr(
                        module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting)
        argv = [str(inputs / a) if a.endswith((".rlat", ".gspec", "tree"))
                else a for a in argv]
        code, _, err = invoke(capsys, *argv)
        # an(8) is neither semilinear nor lattice distributive
        assert err == "" and code in (0, 1)
        assert (calls[validate], calls[validate_gluing]) == checks


class TestRejectionReport:
    """A command given a non-member prints rlat check's report, with the
    algebra's names in the witnesses, and exits 1."""

    @pytest.mark.parametrize("argv", [
        ("partition",), ("congruences",), ("decompose",),
        ("prop", "distr-semilattice"), ("prop", "distr-lattice"),
        ("prop", "semilinear"), ("dot",), ("dot", "--order", "monoidal"),
    ], ids="-".join)
    def test_matches_check(self, capsys, fixdir, tmp_path, argv):
        text = (fixdir / "sample_lower.rlat").read_text(encoding="utf-8")
        bad = tmp_path / "bad.rlat"
        bad.write_text(text.replace("join 0_w w -w", "join 0_w 1_w -w"),
                       encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(bad))
        assert (code, err) == (1, "")
        assert "join commutative: FAIL at (0_w, w)\n" in out
        assert invoke(capsys, *argv, str(bad)) == (code, out, err)


class TestGen:
    def test_an(self, capsys):
        code, out, _ = invoke(capsys, "gen", "an", "2")
        assert code == 0
        assert out == emit(build_an(2))

    def test_bool(self, capsys):
        code, out, _ = invoke(capsys, "gen", "bool", "3")
        assert code == 0
        assert out == emit(boolean_algebra(3))

    def test_negative_number(self, capsys):
        code, _, err = invoke(capsys, "gen", "an", "-1")
        assert code == 2
        assert err.startswith("error:")

    def test_size_cap(self, capsys):
        # build_an(1000) has n = 4006 and would not finish; it is refused
        # before anything is built. Sizes with more digits than Python
        # prints, and 2^k too large to build, are refused the same way
        for argv in (("an", "1000"), ("bool", "11"),
                     ("bool", "100000000000000000000"), ("bool", "20000"),
                     ("an", "9" * 4300)):
            code, out, err = invoke(capsys, "gen", *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: size") and "exceeds cap" in err

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "foo", "2"])
        assert exc.value.code == 2


class TestEnum:
    def test_writes_corpus(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "enum", "4", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines() == ["size 1: 1", "size 2: 1",
                                    "size 3: 1", "size 4: 2"]
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["n1_0.rlat", "n2_0.rlat", "n3_0.rlat",
                         "n4_0.rlat", "n4_1.rlat"]
        for p in tmp_path.iterdir():
            assert validate(load_algebra(str(p))).ok

    def test_size7_matches_fixtures(self, capsys, tmp_path, fixdir):
        # the whole corpus to size 7, under a second; the size-7 files
        # are the pinned fixtures that the size-7 tests load
        code, out, _ = invoke(capsys, "enum", "7", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines() == ["size 1: 1", "size 2: 1", "size 3: 1",
                                    "size 4: 2", "size 5: 2", "size 6: 4",
                                    "size 7: 4"]
        assert len(list(tmp_path.iterdir())) == 15
        pinned = sorted((fixdir / "size7").iterdir())
        assert [p.name for p in pinned] \
            == sorted(p.name for p in tmp_path.glob("n7_*"))
        for p in pinned:
            assert (tmp_path / p.name).read_bytes() == p.read_bytes()

    def test_out_removes_an_earlier_corpus(self, capsys, tmp_path):
        # files whose names no corpus writes stay
        others = ["notes.txt", "n4_0.txt", "n4_x.rlat", "m4_0.rlat",
                  "n_0.rlat", "n4_.rlat", "n4_0_1.rlat", "t.rlat"]
        for name in others:
            (tmp_path / name).write_text("kept\n", encoding="utf-8")
        for size in ("6", "3"):
            assert invoke(capsys, "enum", size, "--out", str(tmp_path))[0] \
                == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["n1_0.rlat", "n2_0.rlat", "n3_0.rlat"] + others)
        assert all((tmp_path / name).read_text(encoding="utf-8") == "kept\n"
                   for name in others)

    def test_out_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["enum", "4"])
        assert exc.value.code == 2

    def test_cap_exceeded(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "enum", "9", "--out", str(tmp_path))
        assert code == 2
        assert "cap" in err


class TestProp:
    def test_semilinear_witness(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "prop", "semilinear", a1_path)
        assert code == 1
        assert out == "x=a y=-b\n"

    def test_lattice_distributivity_witness(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "prop", "distr-lattice", a1_path)
        assert code == 1
        assert out == "x=a y=-b z=0\n"

    def test_semilattice_distributivity_holds(self, capsys, a1_path):
        code, out, _ = invoke(capsys, "prop", "distr-semilattice", a1_path)
        assert code == 0
        assert out == "holds\n"

    def test_holds_on_boolean(self, capsys, tmp_path):
        p = tmp_path / "b.rlat"
        p.write_text(emit(boolean_algebra(2)), encoding="utf-8")
        code, out, _ = invoke(capsys, "prop", "semilinear", str(p))
        assert code == 0
        assert out == "holds\n"

    def test_unknown_property(self):
        with pytest.raises(SystemExit) as exc:
            run(["prop", "transitive", "x.rlat"])
        assert exc.value.code == 2


class TestDot:
    def test_defaults_to_lattice(self, capsys, a1_path, a1):
        code, out, _ = invoke(capsys, "dot", a1_path)
        assert code == 0
        assert out == dot_export(a1, "lattice")

    def test_monoidal(self, capsys, a1_path, a1):
        code, out, _ = invoke(capsys, "dot", a1_path, "--order", "monoidal")
        assert code == 0
        assert out == dot_export(a1, "monoidal")

    def test_bad_order(self):
        with pytest.raises(SystemExit) as exc:
            run(["dot", "x.rlat", "--order", "sideways"])
        assert exc.value.code == 2


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, spelled", [
        ("decompose {F} --out {D}", "decompose {F} --out={D}"),
        ("decompose {F} --out {D}", "decompose --out {D} {F}"),
        ("dot {F} --order monoidal", "dot {F} --ord monoidal"),
        ("dot {F} --order monoidal", "dot --order monoidal -- {F}"),
        ("check {F}", "check -- {F}"),
        ("check {F}", "check -- -"),
        ("check --help", "check {F} --he"),
        ("check --help", "check {F} -h"),
        ("--help", "--he"),
    ])
    def test_option_spellings(self, capsys, monkeypatch, a1_path, tmp_path,
                              argv, spelled):
        # each spelling gives the stdout of the plain one and exit 0; `-`
        # reads a1.rlat
        stdin = pathlib.Path(a1_path).read_text(encoding="utf-8")
        results = [in_process(capsys, monkeypatch,
                              line.format(F=a1_path, D=tmp_path / d).split(),
                              stdin)
                   for line, d in ((argv, "plain"), (spelled, "spelled"))]
        assert results[0][0] == 0 and results[0][1]
        assert results[1] == results[0]

    def test_negative_number_is_a_positional(self, capsys):
        assert invoke(capsys, "gen", "an", "-1") \
            == (2, "", "error: index must be nonnegative\n")

    @pytest.mark.parametrize("argv", [
        "check {F} {F}", "check {F} --bogus", "gen an x", "gen foo 2",
        "prop nope {F}", "enum 4",
        # -h takes no value, and --=x names no option
        "-hx", "check {F} --=x",
        # only integers are negative numbers; the rest are options
        "gen an -1.5", "gen an -.5",
        "--bogus check {F}", "check -x",
        # an option's value is the next argument only if it is a positional
        "decompose {F} --out --", "enum 4 --out",
    ])
    def test_usage_error(self, capsys, monkeypatch, a1_path, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv.format(F=a1_path).split())
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: rlat ")
        assert err.splitlines()[-1].startswith("rlat: error: ")
        assert list(tmp_path.iterdir()) == []   # no --out directory

    @pytest.mark.parametrize("argv", ["-h", "check -h"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert "check" in out

    def test_help_prints_the_readme_command_block(self, capsys):
        # the block under "## Command line", and each command's line of it
        # after that command
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Command line\n\n```\n(.*?)^```", text,
                          re.S | re.M).group(1)
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert (exc.value.code, capsys.readouterr()) == (0, (block, ""))
        lines = block.splitlines()
        assert [line.split()[1] for line in lines] == [
            "check", "partition", "congruences", "glue", "decompose",
            "reassemble", "gen", "enum", "prop", "dot"]
        for line in lines:
            with pytest.raises(SystemExit) as exc:
                run([line.split()[1], "-h"])
            assert (exc.value.code, capsys.readouterr()) \
                == (0, (line + "\n", ""))


def in_process(capsys, monkeypatch, argv, stdin):
    """(exit code, stdout, stderr) of run(argv) in this process, from the
    repository root."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = run(argv)
    except SystemExit as exc:   # a usage error or -h
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def fresh_main(argv, stdin):
    """(exit code, stdout, stderr) of `python -m rlat.cli argv` in a new
    interpreter on src, from the repository root: the path of main().
    Standard output is block-buffered, so output that main() failed to
    flush before the process ends would be missing."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="")
    proc = subprocess.run([sys.executable, "-m", "rlat.cli", *argv],
                          cwd=ROOT, env=env, input=stdin,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def written(directory):
    """name -> bytes of each file in directory; {} when there is none."""
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


def main_unread(argv, unbuffered, stream, stdin):
    """(exit code, the other stream's bytes) of `python -m rlat.cli argv`
    in a new interpreter whose stream, "stdout" or "stderr", is a pipe
    that no one reads, with PYTHONUNBUFFERED set to unbuffered."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
               stream: write_end}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rlat.cli", *argv.split()], cwd=ROOT,
            env=env, input=stdin, **streams)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr if stream == "stdout" else proc.stdout


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code", [
        ("check fixtures/a1.rlat", 0),
        ("prop distr-lattice fixtures/a1.rlat", 1),
        ("check nosuch.rlat", 2),
        ("gen an -1", 2),
        ("frobnicate", 2),
        ("-h", 0),
        ("check -", 0),
        ("gen bool 8", 0),
        ("decompose fixtures/a1.rlat --out {D}", 0),
        ("check", 2),
    ])
    def test_main_matches_run(self, capsys, monkeypatch, tmp_path, fixdir,
                              argv, code):
        # the stdout, stderr, exit code and written files of a new process
        # through main() are those of run() in this one, each writing into
        # its own directory; `check -` reads a1.rlat, and `gen bool 8`
        # writes 515 lines, more than a pipe holds
        stdin = (fixdir / "a1.rlat").read_text(encoding="utf-8")

        def argv_in(side):
            return [a.format(D=tmp_path / side) for a in argv.split()]

        expected = in_process(capsys, monkeypatch, argv_in("run"), stdin)
        assert expected[0] == code
        assert fresh_main(argv_in("main"), stdin) == expected
        files = written(tmp_path / "run")
        assert written(tmp_path / "main") == files
        assert bool(files) == ("--out" in argv)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [
        "congruences fixtures/a1.rlat", "gen bool 1", "check -", "-h",
    ])
    def test_closed_stdout_exits_as_on_sigpipe(self, fixdir, argv,
                                               unbuffered):
        # the reader of standard output is gone before the command starts:
        # exit 141, as a shell reports a command ended by SIGPIPE, and
        # nothing on standard error, whether the write that fails is the
        # command's own or main()'s flush
        stdin = (fixdir / "a1.rlat").read_bytes()
        assert main_unread(argv, unbuffered, "stdout", stdin) == (141, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", ["check", "check nosuch.rlat"])
    def test_closed_stderr_exits_as_on_sigpipe(self, argv, unbuffered):
        # a usage error and an invalid input write only to standard error
        assert main_unread(argv, unbuffered, "stderr", b"") == (141, b"")

    @pytest.mark.parametrize("argv, code", [
        ("prop distr-lattice {F}", 1), ("frobnicate", 2),
    ])
    def test_run_leaves_the_collector(self, a1_path, argv, code):
        # run() is called by processes that go on: whether it returns or
        # raises SystemExit, it leaves the collector as it found it
        before = gc.get_freeze_count()
        try:
            got = run(argv.format(F=a1_path).split())
        except SystemExit as exc:   # a usage error
            got = exc.code
        assert (got, gc.get_freeze_count()) == (code, before)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to list")
    def test_run_leaves_no_file_open(self, capsys, fixdir, tmp_path):
        # main() ends the process by os._exit, which closes no file object:
        # a file that a command left open would lose what its buffer holds.
        # So each command closes every file it opens before run() returns.
        # `reassemble BAD` reads a tree whose root spec is not a gluing.
        a1, spec = str(fixdir / "a1.rlat"), str(fixdir / "sample.gspec")
        tree, bad = str(tmp_path / "tree"), tmp_path / "bad"
        invoke(capsys, "decompose", a1, "--out", str(bad))
        root = bad / "t.gspec"
        root.write_text(root.read_text(encoding="utf-8").replace("b 0", "b 1"),
                        encoding="utf-8")
        for argv, code in [
                (["check", a1], 0), (["partition", a1], 0),
                (["congruences", a1], 0), (["glue", spec], 0),
                (["check", spec], 0), (["decompose", a1, "--out", tree], 0),
                (["reassemble", tree], 0), (["gen", "an", "3"], 0),
                (["gen", "bool", "3"], 0),
                (["enum", "4", "--out", str(tmp_path / "enum")], 0),
                (["prop", "distr-lattice", a1], 1), (["dot", a1], 0),
                (["check", str(tmp_path / "nosuch.rlat")], 2),
                (["reassemble", str(bad)], 2)]:
            before = open_descriptors()
            assert invoke(capsys, *argv)[0] == code, argv
            assert open_descriptors() == before, argv


@pytest.mark.skipif(shutil.which("rlat") is None,
                    reason="console script not on PATH")
class TestConsoleScript:
    def test_check_fixture(self, fixdir):
        proc = subprocess.run(["rlat", "check", str(fixdir / "a1.rlat")],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_gen_pipes_into_check(self):
        proc = subprocess.run("rlat gen an 3 | rlat check -", shell=True,
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "residuation: pass" in proc.stdout
