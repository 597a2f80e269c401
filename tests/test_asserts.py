"""No ``assert`` statement in the program source.

``python -O`` strips asserts, so a check written as one stops running
without a word; every load-bearing check under ``src/`` raises an
exception instead.  Tests are not checked: pytest needs its asserts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line of every assert statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_checker_flags_an_assert():
    assert assert_lines("x = 1\nassert x, 'checked'\n") == [2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_asserts_in_src(path):
    assert assert_lines(path.read_text()) == []
