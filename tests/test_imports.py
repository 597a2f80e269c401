"""Every imported name in the source, tests, tools and benchmark harness is used.

No linter ships with the project, so this is a small AST check: a name
bound by an import must be read somewhere else in the same module.
Package ``__init__.py`` files are exempt, since their imports are the
re-exported API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    path
    for folder in ("src", "tests", "tools", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, mapped to its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.argv, gcd)\n"
    assert unused_imports(source) == [(1, "os"), (3, "lcm")]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
