"""Source hygiene checks that need no linter: every import in the library is
used, no module imports another module's private (underscore) names or reads
them off an object, no module keeps a cache of its own outside the objects it
derives data from, and the command line prints its results in one place."""

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


def foreign_private_reads(source: str) -> list[str]:
    """Reads of ``obj._name`` where the module itself does not define
    ``_name`` (as a ``def`` or class, an assignment, a keyword argument or
    a ``__slots__`` entry).  Reads through ``self`` and dunder names are
    exempt."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            defined.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            defined.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            defined.update(c.value for c in ast.walk(node.value)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            and node.attr not in defined
        ):
            out.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _, text in sorted(out)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_reads_of_foreign_objects(path):
    assert foreign_private_reads(path.read_text()) == []


def test_the_check_sees_a_foreign_private_read():
    source = (
        "class A:\n    __slots__ = ('_text',)\n"
        "    def _own(self):\n        return self._cache, self.__class__\n"  # exempt
        "def f(a, sig, m):\n"
        "    a._text, a._own(), make(_flag=1)._flag\n"  # defined here
        "    return sig._arity, m.__dict__, m.compiled._seen\n"
    )
    assert foreign_private_reads(source) == ["line 7: sig._arity", "line 7: m.compiled._seen"]
    # engine.Closure once read the signature's private arity map
    engine_closure = (
        "class Closure:\n"
        "    def __init__(self, roots, sig):\n"
        "        self.formulas = formulas = subformula_closure(roots)\n"
        "        arity = sig._arity\n"
        "        for f in formulas:\n"
        "            if (f.name in arity) if f.head is None else arity.get(f.head) != len(f.args):\n"
        "                raise ValueError(f'formula {print_formula(f)} not well-formed')\n"
    )
    assert foreign_private_reads(engine_closure) == ["line 4: sig._arity"]


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


def print_paths(source: str) -> list[str]:
    """Calls of ``print`` outside ``run_cli`` and uses of ``sys.stdout``
    outside ``_output_matrix``, each named with the function it is in."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "print":
                if where != "run_cli":
                    found.append((child.lineno, f"print in {where}"))
            elif (isinstance(child, ast.Attribute) and child.attr == "stdout"
                  and getattr(child.value, "id", None) == "sys" and where != "_output_matrix"):
                found.append((child.lineno, f"sys.stdout in {where}"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else where)

    visit(ast.parse(source), "the module")
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_cli_prints_in_one_place():
    # a subcommand returns its outcome; run_cli prints it, and only a matrix
    # is written straight to stdout
    assert print_paths((PACKAGE / "cli_io.py").read_text()) == []


def test_the_check_sees_a_second_print_path():
    source = (
        "def _emit(args, payload, human):\n    print(human)\n"
        "def _output_matrix(args, m):\n    sys.stdout.write(format_matrix(m))\n"
        "def _combine(args):\n    print(json.dumps({}))\n"
        "def run_cli(argv=None):\n    print('error', file=sys.stderr)\n"
        "    sys.stdout.flush()\n"
        "print('loaded')\n"
    )
    assert print_paths(source) == [
        "line 2: print in _emit",
        "line 6: print in _combine",
        "line 9: sys.stdout in run_cli",
        "line 10: print in the module",
    ]
