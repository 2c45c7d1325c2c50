"""Every top-level import of the engine modules and the tests is used, and
every name an engine module defines at top level is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENGINE = sorted((ROOT / "src" / "ci_engine").glob("*.py"))
MODULES = [p for p in ENGINE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_scan_sees_plain_dotted_and_renamed_imports():
    source = (
        "import os.path\nimport numpy as np\n"
        "from math import gcd, prod as product\n"
        "def f(x):\n    import sys\n    return np.abs(x) + gcd(1, 2)\n"
    )
    assert unused_imports(source) == ["os", "product"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_top_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source):
    """Names bound by the module's top-level definitions and assignments,
    dunders aside; imports are left to ``unused_imports``."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in bound if not (name.startswith("__") and name.endswith("__"))]


def read_names(source):
    """Every name the module reads: as a variable, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_name_scan_sees_definitions_and_reads():
    source = (
        "import os\nX, (_y, z) = 1, (2, 3)\nw: int = 4\n__all__ = []\n"
        "def f():\n    return g.h\nclass C:\n    pass\n"
        "from m import k\n"
    )
    assert defined_names(source) == ["X", "_y", "z", "w", "f", "C"]
    assert read_names(source) == {"int", "g", "h", "k"}


def test_every_top_level_name_of_the_engine_is_read():
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.name}: {name}"
        for path in ENGINE
        for name in defined_names(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []
