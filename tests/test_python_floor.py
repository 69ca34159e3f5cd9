"""Every Python file of the project parses at the floor pyproject.toml states.

``requires-python`` promises an older interpreter than the one CI runs, so
a construct newer than the floor (``except*``, a PEP 695 type alias) would
break an install that pip allows. Each ``.py`` under ``src/``, ``tests/``
and ``scripts/`` is parsed with ``ast.parse(..., feature_version=floor)``.
This checks the grammar only: a standard-library name newer than the floor
parses at any version and is not caught here. ``tomllib`` is such a name
(3.11+), so the floor is read with a regex.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))


def python_floor() -> tuple[int, int]:
    """(major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_floor_is_read_and_sources_are_found():
    assert python_floor() == (3, 10)
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/bowtie/rings.py", "tests/oracles.py", "scripts/ab_instances.py"} <= names


def test_a_construct_newer_than_the_floor_fails_to_parse():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=python_floor())
    ast.parse(source, feature_version=(3, 11))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=python_floor())
