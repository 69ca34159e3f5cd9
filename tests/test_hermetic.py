"""The library neither reads the environment nor writes to the terminal.

Only the CLI (``cli.py``) reads BOWTIE_BUDGET and prints: every other
module of ``src/bowtie`` takes what it needs as arguments and returns what
it finds, so a caller gets the same answer whatever its shell holds. Each
module is parsed with ``ast`` and searched for ``os.environ``,
``os.getenv``, a call of ``print`` and ``sys.stdout`` or ``sys.stderr``.
"""

import ast
from pathlib import Path

import pytest

import bowtie

LIBRARY = sorted(p for p in Path(bowtie.__file__).resolve().parent.glob("*.py")
                 if p.name != "cli.py")

FORBIDDEN = {("os", "environ"), ("os", "getenv"), ("sys", "stdout"), ("sys", "stderr")}


def terminal_and_environment(tree: ast.Module) -> list[str]:
    """Where the module reads the environment or writes to the terminal, by line."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in FORBIDDEN):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append((node.lineno, "print"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_library_modules_are_found():
    assert {p.name for p in LIBRARY} >= {"__init__.py", "rings.py", "theorems.py"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_reads_no_environment_and_prints_nothing(path):
    assert terminal_and_environment(ast.parse(path.read_text(), filename=str(path))) == []


def test_a_read_of_the_environment_or_a_print_is_reported():
    tree = ast.parse("import os, sys\nx = os.environ.get('A')\nprint(x)\n"
                     "sys.stderr.write('y')\ny = os.getenv('B')\nsys.stdout.flush()\n")
    assert terminal_and_environment(tree) == [
        "line 2: os.environ", "line 3: print", "line 4: sys.stderr", "line 5: os.getenv",
        "line 6: sys.stdout"]
