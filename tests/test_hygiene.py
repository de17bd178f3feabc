"""Source hygiene checks that need no linter: every import in the library is
used, no module imports another module's private (underscore) names, and no
module keeps a cache of its own outside the objects it derives data from."""

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



#: the one module-level cache the library keeps: builtin() hands out one
#: shared object per fixture
ALLOWED_CACHES = {"fixtures.py": {"_fixture_cache"}}


def module_caches(source: str, allowed=frozenset()) -> list[str]:
    """Module-level names ending in ``_cache`` and not allowed, and
    ``functools.lru_cache`` or ``functools.cache`` decorators anywhere.
    Derived data belongs on the object it is derived from (as
    ``PNMatrix.compiled`` does), so it is freed and copied with it."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)
                  and t.id.endswith("_cache") and t.id not in allowed]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                name = d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append((d.lineno, f"@{name} on {node.name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert module_caches(path.read_text(), ALLOWED_CACHES.get(path.name, set())) == []


def test_the_check_sees_a_module_level_cache():
    source = (
        "import functools\nfrom functools import cache, cached_property\n"
        "_seen_cache = {}\n"
        "index_cache: dict = {}\n"
        "def f():\n    local_cache = {}\n"  # not module-level
        "@functools.lru_cache(maxsize=None)\ndef g(x):\n    return x\n"
        "class A:\n    @cache\n    def h(self):\n        pass\n"
        "    @cached_property\n    def k(self):\n        pass\n"  # kept on the object
    )
    assert module_caches(source) == [
        "line 3: _seen_cache",
        "line 4: index_cache",
        "line 7: @lru_cache on g",
        "line 11: @cache on h",
    ]
    assert module_caches("_fixture_cache = {}\n", {"_fixture_cache"}) == []
