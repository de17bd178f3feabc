"""Source hygiene checks that need no linter: every import in the library is
used, and no module imports another module's private (underscore) names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pnmatrix"
# __init__.py imports names in order to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "CompiledMatrix" names what it uses
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import itertools\nfrom typing import Optional, Sequence\nx: Optional[int]\n"
    assert unused_imports(source) == ["line 1: itertools", "line 2: Sequence"]


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a sibling module of the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "pnmatrix"
        ):
            out += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_names_from_siblings(path):
    assert private_imports(path.read_text()) == []


def test_the_check_sees_a_private_import():
    source = (
        "from collections import _chain_maps\n"  # not a sibling module
        "from .engine import Verdict, _Closure\n"
        "def f():\n    from pnmatrix.syntax import _walk\n"
    )
    assert private_imports(source) == ["line 2: _Closure", "line 4: _walk"]
