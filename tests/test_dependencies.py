"""The package keeps zero runtime dependencies: it imports only the
standard library and its own modules, and the command line loads no more of
them than every command needs."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rlat"


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_standard_library_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for module in absolute_imports(path):
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, module)


def test_every_imported_name_is_read():
    # an import binds its alias, or the first part of a dotted module name;
    # a name no expression reads is a dead import
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unread.append((path.name, bound))
    assert unread == []


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start-up;
    # the result records are named tuples
    for path in sorted(SRC.glob("*.py")):
        for module in absolute_imports(path):
            assert module.split(".")[0] != "dataclasses", path.name


# the modules every command loads: the rest load in the commands that run
# them
CLI_MODULES = ["rlat", "rlat.cli", "rlat.core", "rlat.fileformat",
               "rlat.kernel"]
FIXTURES = SRC.parent.parent / "fixtures"


def fresh_python(code):
    """The standard output of code run in a new interpreter on src."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def rlat_modules(code):
    """The rlat modules loaded once code has run in a new interpreter."""
    return fresh_python(
        code + "\nimport sys\n"
        "print(*sorted(k for k in sys.modules if k.split('.')[0] == 'rlat'))"
    ).split()


def test_cli_import_loads_only_what_every_command_needs():
    out = fresh_python("import sys, rlat.cli\n"
                       "print(' '.join(sorted(sys.modules)))").split()
    assert "dataclasses" not in out
    assert [m for m in out if m.split(".")[0] == "rlat"] == CLI_MODULES


def test_cli_import_loads_no_argument_parser():
    # argparse, with the gettext and locale it imports, is start-up that
    # every command would pay; the commands parse argv from cli._COMMANDS
    out = fresh_python("import sys\n"
                       "before = set(sys.modules)\n"
                       "import rlat.cli\n"
                       "print(*sorted(set(sys.modules) - before))").split()
    assert "rlat.cli" in out
    assert [m for m in ("argparse", "gettext", "locale") if m in out] == []


def test_package_import_loads_no_submodule():
    assert rlat_modules("import rlat") == ["rlat"]


def test_cli_imports_from_the_package_only_core_and_fileformat():
    # every other public name is read through the package, whose _LAZY
    # table says which module defines it; imports inside the commands count
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            # from . import props names the module props
            relative.update([node.module] if node.module
                            else (alias.name for alias in node.names))
    assert relative == {"core", "fileformat"}


def test_every_exported_name_loads_lazily():
    import rlat
    assert sorted(rlat._LAZY) == sorted(rlat.__all__)


@pytest.mark.parametrize("argv, modules", [
    ("check a1.rlat", ""),
    ("partition a1.rlat", "partition"),
    ("congruences a1.rlat", "congruence"),
    ("decompose a1.rlat --out tree", "decompose gluing"),
    ("reassemble tree", "gluing"),
    ("glue sample.gspec", "gluing"),
    ("gen an 2", "generate gluing"),
    ("gen bool 2", "generate"),
    ("prop distr-semilattice a1.rlat", "props"),
])
def test_each_command_loads_only_the_modules_it_runs(argv, modules,
                                                     tmp_path):
    from rlat import decompose, load_algebra, write_tree
    tree = tmp_path / "tree"
    write_tree(decompose(load_algebra(str(FIXTURES / "a1.rlat"))), str(tree))
    paths = {"a1.rlat": FIXTURES / "a1.rlat", "tree": tree,
             "sample.gspec": FIXTURES / "sample.gspec"}
    argv = [str(paths.get(a, a)) for a in argv.split()]
    assert rlat_modules(
        "import contextlib, io, rlat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rlat.cli.run(%r) == 0" % argv) \
        == sorted(CLI_MODULES + ["rlat." + m for m in modules.split()])


def test_package_names_survive_commands_that_load_their_modules():
    # a command imports the decompose and partition modules before the
    # package names are read; the names are the functions, the modules
    # stay in sys.modules
    a1 = str(FIXTURES / "a1.rlat")
    out = fresh_python(
        "import contextlib, importlib, inspect, io, sys\n"
        "from rlat.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    run(['decompose', %r])\n"
        "    run(['partition', %r])\n"
        "module = importlib.import_module('rlat.decompose')\n"
        "from rlat import decompose, partition\n"
        "print(inspect.isfunction(decompose), inspect.isfunction(partition))\n"
        "print(sys.modules['rlat.decompose'] is module,\n"
        "      inspect.ismodule(module), module.decompose is decompose,\n"
        "      sys.modules['rlat.partition'].partition is partition)\n"
        % (a1, a1))
    assert out.splitlines() == ["True True", "True True True True"]


def test_package_names_survive_importing_every_submodule_first():
    # each name of rlat.__all__ is the object of its home module, and a
    # first import of a submodule does not rebind decompose or partition
    out = fresh_python(
        "import importlib, inspect, pkgutil, sys\n"
        "import rlat.cli\n"
        "for m in pkgutil.iter_modules(sys.modules['rlat'].__path__):\n"
        "    importlib.import_module('rlat.' + m.name)\n"
        "import rlat\n"
        "homes = {}\n"
        "for key, mod in sorted(sys.modules.items()):\n"
        "    if key.startswith('rlat.'):\n"
        "        for name in set(rlat.__all__) & set(vars(mod)):\n"
        "            obj = vars(mod)[name]\n"
        "            if getattr(obj, '__module__', key) == key:\n"
        "                homes.setdefault(name, obj)\n"
        "print(sorted(set(rlat.__all__) - set(homes)))\n"
        "print(sorted(n for n in rlat.__all__\n"
        "             if getattr(rlat, n) is not homes.get(n)))\n"
        "print(inspect.isfunction(rlat.decompose),\n"
        "      inspect.isfunction(rlat.partition))\n")
    assert out.splitlines() == ["[]", "[]", "True True"]


def test_every_exported_name_appears_in_the_readme():
    # as a word of an inline code span, outside the fenced blocks
    import rlat
    text = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    words = {w for span in re.findall(r"`([^`]+)`", text)
             for w in re.findall(r"\w+", span)}
    assert [name for name in rlat.__all__ if name not in words] == []


def test_every_traced_layer_is_a_function_of_its_module():
    # BENCHMARK.json's per-layer metrics <module>.<function>.<agg> time the
    # function where rlat.<module> defines it; moving a function to another
    # module renames its metrics, which BENCHMARK.json must then record
    spec = json.loads((SRC.parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    layers = [metric["name"].split(".") for metric in spec["per_layer"]
              if metric["name"].count(".") == 2]
    assert len(layers) == 22
    for module, name, _ in layers:
        function = getattr(importlib.import_module("rlat." + module), name)
        assert function.__module__ == "rlat." + module, (module, name)
