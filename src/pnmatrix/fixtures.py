"""The builtin fixture matrices and the calculi that go with them.

Each fixture is built on first request and then shared: `builtin(name)`
returns the same object every time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .matrix_core import PNMatrix, make_matrix
from .syntax import Signature

if TYPE_CHECKING:
    from .calculus import Calculus


def _table(cols: Sequence[str], rows: dict[str, Sequence[str]]):
    """Binary table from row-major cell strings; '-' empty, spaces separate."""
    table = {}
    for a, cells in rows.items():
        for b, cell in zip(cols, cells):
            table[(a, b)] = frozenset() if cell == "-" else frozenset(cell.split())
    return table


def _unary(mapping: dict[str, str]):
    return {(a,): frozenset(out.split()) for a, out in mapping.items()}


def _bool2() -> PNMatrix:
    sig = Signature.of({"top": 0, "neg": 1, "and": 2, "or": 2, "imp": 2})
    cols = ["0", "1"]
    tables = {
        "top": {(): frozenset({"1"})},
        "neg": _unary({"0": "1", "1": "0"}),
        "and": _table(cols, {"0": ["0", "0"], "1": ["0", "1"]}),
        "or": _table(cols, {"0": ["0", "1"], "1": ["1", "1"]}),
        "imp": _table(cols, {"0": ["1", "1"], "1": ["0", "1"]}),
    }
    meta = {"known_saturated": True, "description": "two-valued truth tables"}
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


def _bool2n() -> PNMatrix:
    sig = Signature.of({"botop": 0, "box": 1, "squig": 2, "pl": 2})
    cols = ["0", "1"]
    tables = {
        "botop": {(): frozenset({"0", "1"})},
        "box": _unary({"0": "0 1", "1": "1"}),
        "squig": _table(cols, {"0": ["0 1", "0 1"], "1": ["0", "0 1"]}),
        "pl": _table(cols, {"0": ["0", "0 1"], "1": ["0 1", "1"]}),
    }
    meta = {
        "known_saturated": False,
        "description": "two-valued non-deterministic connectives",
    }
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


def _sources() -> PNMatrix:
    sig = Signature.of({"and": 2, "or": 2, "neg": 1})
    cols = ["f", "n", "b", "t"]
    tables = {
        "and": _table(
            cols,
            {
                "f": ["f", "f", "f", "f"],
                "n": ["f", "f n", "f", "f n"],
                "b": ["f", "f", "b", "b"],
                "t": ["f", "f n", "b", "b t"],
            },
        ),
        "or": _table(
            cols,
            {
                "f": ["f b", "n t", "b", "t"],
                "n": ["n t", "n t", "t", "t"],
                "b": ["b", "t", "b", "t"],
                "t": ["t", "t", "t", "t"],
            },
        ),
        "neg": _unary({"f": "t", "n": "n", "b": "b", "t": "f"}),
    }
    meta = {
        "known_saturated": True,
        "description": "four-valued aggregation of unreliable information sources",
    }
    return make_matrix(sig, cols, ["b", "t"], tables, meta=meta)


def _kleene_ks() -> PNMatrix:
    sig = Signature.of({"and": 2, "or": 2, "neg": 1})
    cols = ["0", "a", "b", "1"]
    tables = {
        "and": _table(
            cols,
            {
                "0": ["0", "0", "0", "0"],
                "a": ["0", "a", "-", "a"],
                "b": ["0", "-", "b", "b"],
                "1": ["0", "a", "b", "1"],
            },
        ),
        "or": _table(
            cols,
            {
                "0": ["0", "a", "b", "1"],
                "a": ["a", "a", "-", "1"],
                "b": ["b", "-", "b", "1"],
                "1": ["1", "1", "1", "1"],
            },
        ),
        "neg": _unary({"0": "1", "a": "a", "b": "b", "1": "0"}),
    }
    meta = {
        "known_saturated": False,
        "description": "partial four-valued merge of two three-valued readings",
    }
    return make_matrix(sig, cols, ["b", "1"], tables, meta=meta)


def _imp_rows(middle: str) -> dict[str, list[str]]:
    return {"0": ["1", "1", "1"], "h": ["h", middle, "1"], "1": ["0", "h", "1"]}


def _kleene_imp() -> PNMatrix:
    sig = Signature.of({"imp": 2})
    cols = ["0", "h", "1"]
    tables = {"imp": _table(cols, _imp_rows("h"))}
    meta = {"known_saturated": False, "description": "three-valued weak implication"}
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


def _luk_imp() -> PNMatrix:
    sig = Signature.of({"imp": 2})
    cols = ["0", "h", "1"]
    tables = {"imp": _table(cols, _imp_rows("1"))}
    meta = {"known_saturated": False, "description": "three-valued strong implication"}
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


def _luk3() -> PNMatrix:
    sig = Signature.of({"neg": 1, "nabla": 1, "imp": 2})
    cols = ["0", "h", "1"]
    tables = {
        "neg": _unary({"0": "1", "h": "h", "1": "0"}),
        "nabla": _unary({"0": "0", "h": "1", "1": "1"}),
        "imp": _table(cols, _imp_rows("1")),
    }
    meta = {
        "known_saturated": False,
        "description": "three-valued logic with possibility operator",
    }
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


def _neg3() -> PNMatrix:
    sig = Signature.of({"neg": 1})
    cols = ["0", "h", "1"]
    tables = {"neg": _unary({"0": "1", "h": "h", "1": "0"})}
    meta = {"known_saturated": True, "description": "three-valued negation only"}
    return make_matrix(sig, cols, ["1"], tables, meta=meta)


_FIXTURES = {
    "bool2": _bool2,
    "bool2n": _bool2n,
    "sources": _sources,
    "kleene-ks": _kleene_ks,
    "kleene-imp": _kleene_imp,
    "luk-imp": _luk_imp,
    "luk3": _luk3,
    "neg3": _neg3,
}

_fixture_cache: dict[str, PNMatrix] = {}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def builtin(name: str) -> PNMatrix:
    if name not in _FIXTURES:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    if name not in _fixture_cache:
        _fixture_cache[name] = _FIXTURES[name]()
    return _fixture_cache[name]


_CALCULI = {
    "classical": """
        truth : - |- top
        non-contradiction : p, neg(p) |- -
        excluded-middle : - |- p, neg(p)
        and-elim-1 : and(p, q) |- p
        and-elim-2 : and(p, q) |- q
        and-intro : p, q |- and(p, q)
        or-intro-1 : p |- or(p, q)
        or-intro-2 : q |- or(p, q)
        or-elim : or(p, q) |- p, q
        imp-cases : - |- p, imp(p, q)
        modus-ponens : p, imp(p, q) |- q
        imp-intro : q |- imp(p, q)
    """,
    "kleene-ks": """
        and-intro : p, q |- and(p, q)
        and-elim-1 : and(p, q) |- p
        and-elim-2 : and(p, q) |- q
        neg-and-intro-1 : neg(p) |- neg(and(p, q))
        neg-and-intro-2 : neg(q) |- neg(and(p, q))
        neg-and-elim : neg(and(p, q)) |- neg(p), neg(q)
        or-intro-1 : p |- or(p, q)
        or-intro-2 : q |- or(p, q)
        neg-or-elim-1 : neg(or(p, q)) |- neg(p)
        neg-or-elim-2 : neg(or(p, q)) |- neg(q)
        neg-or-intro : neg(p), neg(q) |- neg(or(p, q))
        or-elim : or(p, q) |- p, q
        double-neg-intro : p |- neg(neg(p))
        double-neg-elim : neg(neg(p)) |- p
        gap-glut : p, neg(p) |- q, neg(q)
    """,
    "sources": """
        and-intro : p, q |- and(p, q)
        and-elim-1 : and(p, q) |- p
        and-elim-2 : and(p, q) |- q
        neg-and-intro-1 : neg(p) |- neg(and(p, q))
        neg-and-intro-2 : neg(q) |- neg(and(p, q))
        or-intro-1 : p |- or(p, q)
        or-intro-2 : q |- or(p, q)
        neg-or-elim-1 : neg(or(p, q)) |- neg(p)
        neg-or-elim-2 : neg(or(p, q)) |- neg(q)
        neg-or-intro : neg(p), neg(q) |- neg(or(p, q))
        double-neg-intro : p |- neg(neg(p))
        double-neg-elim : neg(neg(p)) |- p
    """,
    "bool2n": """
        necessitation : p |- box(p)
        modus-ponens : p, squig(p, q) |- q
        pl-intro : p, q |- pl(p, q)
        pl-elim : pl(p, q) |- p, q
    """,
}

_CALC_MATRIX = {
    "classical": "bool2",
    "kleene-ks": "kleene-ks",
    "sources": "sources",
    "bool2n": "bool2n",
}


def calculus_names() -> tuple[str, ...]:
    return tuple(sorted(_CALCULI))


def builtin_calculus(name: str) -> Calculus:
    from .calculus import parse_calculus  # it loads the engine, which the matrices do not need

    if name not in _CALCULI:
        raise KeyError(
            f"unknown calculus {name!r}; available: {', '.join(calculus_names())}"
        )
    sig = builtin(_CALC_MATRIX[name]).sig
    return parse_calculus(_CALCULI[name], sig)
