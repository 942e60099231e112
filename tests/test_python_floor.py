"""The package parses under the oldest Python that ``pyproject.toml`` admits.

Only one newer interpreter may be at hand to run the tests, so this checks
the floor's grammar: ``ast.parse(..., feature_version=floor)`` refuses, for
example, ``except*`` (3.11) under a 3.10 floor.  It checks grammar only, not
stdlib names: a call to a function added after the floor still passes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "holevo2q").glob("*.py"))


def requires_python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_check_reads_the_package_and_refuses_newer_grammar():
    assert SOURCES and requires_python_floor() >= (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_at_the_requires_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=requires_python_floor())
