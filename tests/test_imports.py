"""No module imports a name it never uses. No linter runs offline, so this
walks the package's and the tests' sources with ``ast``."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted([*(_ROOT / "src" / "csibreath").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


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
