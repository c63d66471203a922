"""No module imports a name it never uses, no private module-level name of
the package goes unread, no public function or class of the package is read
only by tests other than the acceptance checks, and the package reaches no
lazily loaded numpy submodule through ``np.``. No linter runs offline, so
this walks the package's and the tests' sources with ``ast``. The analysis
modules load neither the simulator nor ``numpy.random``."""

import ast
import os
import subprocess
import sys
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


def _read_names(trees) -> set[str]:
    """Every name the ``ast`` trees read by name, attribute or import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _defined_names(tree: ast.Module, constants: bool) -> list[str]:
    """The module-level functions and classes of ``tree``, and its constants
    if ``constants``, in definition order."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return defined


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``"<file>: <name>"`` for each private module-level function, class or
    constant (a ``_name``, not a dunder) of ``sources`` that no source reads
    by name, attribute or import, in file and definition order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees.values())
    return [
        f"{name}: {d}"
        for name, tree in trees.items()
        for d in _defined_names(tree, constants=True)
        if d.startswith("_") and not d.startswith("__") and d not in read
    ]


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``"<file>: <name>"`` for each public module-level function or class of
    ``sources`` that neither ``sources`` nor ``readers`` read by name,
    attribute or import, in file and definition order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names([*trees.values(), *map(ast.parse, readers.values())])
    return [
        f"{name}: {d}"
        for name, tree in trees.items()
        for d in _defined_names(tree, constants=False)
        if not d.startswith("_") and d not in read
    ]


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


def test_the_check_finds_a_public_name_only_tests_read():
    sources = {
        "a.py": "LIMIT = 1\ndef used():\n    return Box()\nclass Box:\n    pass\n"
                "def helper():\n    return LIMIT\nclass Spare:\n    pass\n",
        "b.py": "from a import used\n",
    }
    assert unread_public_names(sources, {}) == ["a.py: helper", "a.py: Spare"]
    assert unread_public_names(sources, {"check.py": "import a\na.helper()\n"}) == [
        "a.py: Spare"
    ]


def test_every_public_package_name_is_read():
    # the acceptance checks are the specification: a name they read is in use
    sources = {p.name: p.read_text(encoding="utf-8") for p in _PACKAGE}
    acceptance = _ROOT / "tests" / "test_acceptance.py"
    readers = {acceptance.name: acceptance.read_text(encoding="utf-8")}
    assert unread_public_names(sources, readers) == []


def lazy_numpy_uses(source: str, lazy: set[str]) -> list[str]:
    """``"<line>: np.<name>"`` for each ``np.<name>`` in ``source`` whose
    ``name`` is in ``lazy``, in source order."""
    uses = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in lazy
    ]
    return [f"{line}: np.{name}" for line, name in sorted(uses)]


def test_the_check_finds_a_lazy_numpy_submodule():
    source = (
        "import numpy as np\nfrom numpy.fft import rfft\n"
        "def f(rng: np.random.Generator):\n    return np.fft.fft(rfft(np.ones(2)))\n"
    )
    assert lazy_numpy_uses(source, {"fft", "random"}) == ["3: np.random", "4: np.fft"]


def test_no_lazy_numpy_submodule_is_reached_through_np():
    # numpy loads these on first attribute access. Reached that way inside a
    # pool task, one is imported again in every worker, into pages of its
    # own; imported by name at module level, it is loaded before any fork.
    probe = (
        "import pkgutil, sys, numpy\n"
        "print(*(m.name for m in pkgutil.iter_modules(numpy.__path__)"
        " if 'numpy.' + m.name not in sys.modules))"
    )
    lazy = set(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split())
    assert {"fft", "random"} <= lazy
    uses = {p.name: lazy_numpy_uses(p.read_text(encoding="utf-8"), lazy) for p in _PACKAGE}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_analysis_modules_load_no_simulator():
    # a capture read from a file is analysed without the simulator or its RNG
    modules = ("trace", "grid", "ratio", "gass", "combine", "waveform", "rate", "traceio")
    probe = (
        f"import sys, {', '.join(f'csibreath.{m}' for m in modules)}\n"
        "print([m for m in ('csibreath.simulate', 'numpy.random') if m in sys.modules])"
    )
    path = (str(_ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert loaded == "[]\n"
