"""The package keeps zero runtime dependencies: it imports only the
standard library and its own modules, and the command line loads no more of
them than every command needs."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start-up;
    # the result records are named tuples
    for path in sorted(SRC.glob("*.py")):
        for module in absolute_imports(path):
            assert module.split(".")[0] != "dataclasses", path.name


LAZY = ("rlat.congruence", "rlat.generate", "rlat.props", "rlat.search")


def fresh_python(code):
    """The standard output of code run in a new interpreter on src."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_only_what_every_command_needs():
    out = fresh_python("import sys, rlat.cli\n"
                       "print(' '.join(sorted(sys.modules)))").split()
    assert "dataclasses" not in out
    assert not set(LAZY) & set(out)


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
