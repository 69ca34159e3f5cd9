"""Every name a bowtie module imports is used in that module.

A deletion that leaves its import behind keeps a dependency that nothing
needs, and hides from a reader that the code is gone. Each module of
``src/bowtie`` but the package's ``__init__``, whose imports are its
exports, is parsed with ``ast``: every name an import binds must be read
somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

import bowtie

SOURCES = sorted(p for p in Path(bowtie.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports that it never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"rings.py", "modules.py", "theorems.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nimport numpy as np\nfrom .rings import bits, mask_of\n"
                     "x = np.zeros(bits(1))\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: mask_of"]
