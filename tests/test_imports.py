"""No module imports a name it never uses, and no private module-level name
of the package goes unread. No linter runs offline, so this walks the
package's and the tests' sources with ``ast``."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = sorted((_ROOT / "src" / "csibreath").glob("*.py"))
_SOURCES = sorted([*_PACKAGE, *(_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression
    reads, in import order. ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom math import pi as tau, e\nprint(e, os)\n"
    assert unused_imports(source) == ["json", "tau"]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``"<file>: <name>"`` for each private module-level function, class or
    constant (a ``_name``, not a dunder) of ``sources`` that no source reads
    by name, attribute or import, in file and definition order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{name}: {d}" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    return unread


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": "_used = 1\n_DEAD, _x = 2, 3\n__all__ = []\n"
                "def _helper():\n    return _used + _x\nclass _Box:\n    pass\n",
        "b.py": "from a import _helper\n",
    }
    assert unread_private_names(sources) == ["a.py: _DEAD", "a.py: _Box"]


def test_every_private_package_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in _PACKAGE}
    assert unread_private_names(sources) == []
