"""The package keeps zero runtime dependencies: it imports only the
standard library and its own modules."""

import ast
import pathlib
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
