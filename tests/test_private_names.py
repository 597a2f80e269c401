"""Every module-level private function or class in the package is used.

A small AST check in the style of ``test_imports.py``: a name bound at
module level by ``def _name`` or ``class _Name`` under ``src/derange/``
must be referenced somewhere in ``src/`` outside its own definition, so
a helper that a refactor leaves behind is caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_defs(tree: ast.Module) -> list[ast.stmt]:
    return [
        node for node in tree.body
        if isinstance(node, _DEFS) and node.name.startswith("_") and not node.name.startswith("__")
    ]


def _referenced(nodes) -> set[str]:
    """Names read, attributes taken and names imported under the nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def unreferenced_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private definition no other code uses."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = _referenced(t for m, t in trees.items() if m != module)
        for node in _private_defs(tree):
            rest = [n for n in tree.body if n is not node]
            if node.name not in elsewhere and node.name not in _referenced(rest):
                found.append((module, node.lineno, node.name))
    return found


def test_checker_flags_an_unreferenced_helper():
    sources = {
        "a": "def _used():\n    pass\ndef _lost():\n    return _lost()\nclass _Gone:\n    pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert unreferenced_private(sources) == [("a", 3, "_lost"), ("a", 5, "_Gone")]


def test_no_unreferenced_private_helpers():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unreferenced_private(sources) == []
