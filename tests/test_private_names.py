"""Every function, class and method in the package is used outside tests.

Small AST checks in the style of ``test_imports.py``.  A name bound at
module level by ``def _name`` or ``class _Name`` under ``src/derange/``
must be referenced somewhere in ``src/`` outside its own definition, so
a helper that a refactor leaves behind is caught.  A public module-level
function or class must be referenced outside its own definition from
``src/`` (bar the re-exports in ``__init__.py``), ``perfbench/`` or
``tools/``, and a public method must be taken there as an attribute
(``x.name``), so API that only tests call is caught too; click commands
are exempt, since click calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
CALLERS = sorted(
    path
    for folder in ("src", "perfbench", "tools")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_defs(tree: ast.Module) -> list[ast.stmt]:
    return [
        node for node in tree.body
        if isinstance(node, _DEFS) and node.name.startswith("_") and not node.name.startswith("__")
    ]


def _name_counts(node) -> Counter:
    """How often each name is read, taken as an attribute or imported
    under the node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _attribute_counts(node) -> Counter:
    """How often each name is taken as an attribute under the node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _referenced(nodes) -> set[str]:
    """Names read, attributes taken and names imported under the nodes."""
    return {name for top in nodes for name in _name_counts(top)}


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


def _public_defs(tree: ast.Module) -> list[tuple[ast.stmt, bool]]:
    """(node, is_method) of the public module-level functions and
    classes, bar click commands, and of the public methods."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_") and not _is_click_command(node):
            out.append((node, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item, True) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return out


def _is_click_command(node: ast.stmt) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", [])
    )


def uncalled_public(package: dict[str, str], callers: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public definition in the package
    modules never reference outside the definition itself; a method
    counts only where it is taken as an attribute."""
    trees = [ast.parse(text) for text in callers.values()]
    names = sum(map(_name_counts, trees), Counter())
    attrs = sum(map(_attribute_counts, trees), Counter())
    found = []
    for module, text in package.items():
        for node, is_method in _public_defs(ast.parse(text)):
            count = _attribute_counts if is_method else _name_counts
            own = count(node)[node.name] if module in callers else 0
            if (attrs if is_method else names)[node.name] <= own:
                found.append((module, node.lineno, node.name))
    return found


def test_checker_flags_an_uncalled_public_name():
    package = {
        "a": (
            "class Used:\n    def run(self):\n        pass\n    def spare(self):\n"
            "        return self.spare()\n"
            "    def named(self):\n        pass\n"
            "def lost():\n    pass\n"
            "@cli.command('go')\ndef go_cmd():\n    pass\n"
        ),
    }
    # a local variable that shares a method's name does not call it
    callers = dict(package, b="from a import Used\nUsed().run()\nnamed = [1]\n")
    assert uncalled_public(package, callers) == [
        ("a", 4, "spare"), ("a", 6, "named"), ("a", 8, "lost"),
    ]


def test_public_names_have_callers_outside_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert uncalled_public(package, callers) == []
