"""Signatures, formulas, parsing/printing, substitution and skeleton translation.

Formulas are finite trees built from a countable pool of propositional
variables and the connectives declared by a signature.  Any identifier not
declared in the ambient signature is a variable; declared nullary connectives
parse as applications with zero arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Union


class ParseError(ValueError):
    """Raised on malformed formula text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """An arity-indexed family of connective names.

    Names are unique across arities: a connective has exactly one arity.
    Stored as a sorted tuple of (name, arity) pairs so signatures are
    hashable and comparable.
    """

    connectives: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Signature":
        return Signature(tuple(sorted(dict(mapping).items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.connectives)

    @cached_property
    def _arity(self) -> dict[str, int]:
        return dict(self.connectives)

    def __getstate__(self) -> dict:
        return {"connectives": self.connectives}  # without the cached map

    def arity(self, name: str) -> int:
        return self._arity[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.connectives)

    def __len__(self) -> int:
        return len(self.connectives)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.connectives)

    def union(self, other: "Signature") -> "Signature":
        merged = self.as_dict()
        for name, k in other.connectives:
            if name in merged and merged[name] != k:
                raise ValueError(
                    f"connective {name!r} declared with arities {merged[name]} and {k}"
                )
            merged[name] = k
        return Signature.of(merged)

    def intersection(self, other: "Signature") -> "Signature":
        mine, theirs = self.as_dict(), other.as_dict()
        common = {}
        for name, k in mine.items():
            if name in theirs:
                if theirs[name] != k:
                    raise ValueError(
                        f"connective {name!r} declared with arities {k} and {theirs[name]}"
                    )
                common[name] = k
        return Signature.of(common)

    def difference(self, other: "Signature") -> "Signature":
        theirs = other.names()
        return Signature.of({n: k for n, k in self.connectives if n not in theirs})

    def is_subsignature_of(self, other: "Signature") -> bool:
        theirs = other.as_dict()
        return all(theirs.get(n) == k for n, k in self.connectives)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class App:
    head: str
    args: tuple["Formula", ...] = ()

    def __repr__(self) -> str:
        return f"App({self.head!r}, {list(self.args)!r})"


Formula = Union[Var, App]


def print_formula(f: Formula) -> str:
    """Canonical textual form; inverse of parse_formula."""
    if isinstance(f, Var):
        return f.name
    if not f.args:
        return f.head
    return f"{f.head}({', '.join(print_formula(a) for a in f.args)})"


def formula_size(f: Formula) -> int:
    """Number of nodes in the formula tree (repeated subtrees counted each time)."""
    size, stack = 0, [f]
    while stack:
        g = stack.pop()
        size += 1
        if isinstance(g, App):
            stack.extend(g.args)
    return size


def formula_key(f: Formula) -> tuple[int, str]:
    """Deterministic ordering key: smaller first, ties broken textually."""
    return (formula_size(f), print_formula(f))


def subformulas(f: Formula) -> frozenset[Formula]:
    acc: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in acc:
            acc.add(g)
            if isinstance(g, App):
                stack.extend(g.args)
    return frozenset(acc)


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


def subformula_closure(formulas: Iterable[Formula]) -> list[Formula]:
    """All subformulas of the given set, in increasing subformula order.

    The order is that of ``formula_key``.  Each node's key is built once,
    bottom-up from its arguments' keys, so nothing is measured or printed
    twice.
    """
    roots = list(formulas)  # keeps every node alive, so ids stay unique
    key_of: dict[int, tuple[int, str]] = {}
    keys: dict[Formula, tuple[int, str]] = {}
    for root in roots:
        stack = [root]
        while stack:
            g = stack[-1]
            if id(g) in key_of:
                stack.pop()
                continue
            if isinstance(g, Var):
                key = (1, g.name)
            else:
                todo = [a for a in g.args if id(a) not in key_of]
                if todo:
                    stack.extend(todo)
                    continue
                arg_keys = [key_of[id(a)] for a in g.args]
                key = (
                    1 + sum(size for size, _ in arg_keys),
                    f"{g.head}({', '.join(text for _, text in arg_keys)})" if g.args else g.head,
                )
            stack.pop()
            key_of[id(g)] = key
            keys.setdefault(g, key)
    return [f for f, _ in sorted(keys.items(), key=itemgetter(1))]


def well_formed(f: Formula, sig: Signature) -> bool:
    """True iff every App node uses a declared connective at its declared arity."""
    if isinstance(f, Var):
        return f.name not in sig
    if f.head not in sig or sig.arity(f.head) != len(f.args):
        return False
    return all(well_formed(a, sig) for a in f.args)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "(),":
            tokens.append((ch, ch, i))
            i += 1
        else:
            m = _IDENT.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
    tokens.append(("eof", "", n))
    return tokens


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse `ident | ident "(" formula ("," formula)* ")"` over a signature.

    Bare identifiers that are declared nullary connectives become
    zero-argument applications; undeclared identifiers become variables.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind: str):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def formula() -> Formula:
        kind, name, off = take("ident")
        if peek()[0] == "(":
            take("(")
            args = [formula()]
            while peek()[0] == ",":
                take(",")
                args.append(formula())
            take(")")
            if name not in sig:
                raise ParseError(f"undeclared connective {name!r}", off)
            if sig.arity(name) != len(args):
                raise ParseError(
                    f"connective {name!r} expects {sig.arity(name)} arguments, got {len(args)}",
                    off,
                )
            return App(name, tuple(args))
        if name in sig:
            if sig.arity(name) != 0:
                raise ParseError(
                    f"connective {name!r} expects {sig.arity(name)} arguments, got 0", off
                )
            return App(name, ())
        return Var(name)

    result = formula()
    take("eof")
    return result


def parse_formula_list(text: str, sig: Signature) -> tuple[Formula, ...]:
    """Parse a comma-separated (possibly empty) list of formulas."""
    if not text.strip() or text.strip() == "-":
        return ()
    # split at top level: reuse the tokenizer to find commas at depth 0
    tokens = _tokenize(text)
    parts, depth, start = [], 0, 0
    for kind, _val, off in tokens:
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        elif kind == "," and depth == 0:
            parts.append(text[start:off])
            start = off + 1
        elif kind == "eof":
            parts.append(text[start:])
    return tuple(parse_formula(p, sig) for p in parts)


# ---------------------------------------------------------------------------
# Substitution and matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """A total map from variables to formulas, identity outside its support."""

    mapping: tuple[tuple[str, Formula], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, Formula]) -> "Substitution":
        return Substitution(tuple(sorted(mapping.items(), key=lambda kv: kv[0])))

    def as_dict(self) -> dict[str, Formula]:
        return dict(self.mapping)

    def __call__(self, name: str) -> Formula:
        for k, v in self.mapping:
            if k == name:
                return v
        return Var(name)


def apply_substitution(f: Formula, s: Substitution) -> Formula:
    if isinstance(f, Var):
        return s(f.name)
    return App(f.head, tuple(apply_substitution(a, s) for a in f.args))


def compose(tau: Substitution, sigma: Substitution) -> Substitution:
    """(tau . sigma)(p) = tau applied to sigma(p); support is the union."""
    support = {k for k, _ in sigma.mapping} | {k for k, _ in tau.mapping}
    return Substitution.of({p: apply_substitution(sigma(p), tau) for p in support})


def match_instance(candidate: Formula, schema: Formula) -> Optional[Substitution]:
    """First-order matching: find s with apply_substitution(schema, s) == candidate."""
    binding: dict[str, Formula] = {}

    def go(c: Formula, s: Formula) -> bool:
        if isinstance(s, Var):
            if s.name in binding:
                return binding[s.name] == c
            binding[s.name] = c
            return True
        if isinstance(c, Var) or c.head != s.head or len(c.args) != len(s.args):
            return False
        return all(go(ca, sa) for ca, sa in zip(c.args, s.args))

    return Substitution.of(binding) if go(candidate, schema) else None


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

class MonolithMap:
    """Session state for skeleton translation into a subsignature.

    Maintains a bijection between monolith formulas (head outside the
    subsignature) and fresh variables named "m1", "m2", ... in first-encounter
    order, plus an injective renaming "p" -> "v_p" of ordinary variables.
    One map should be used per translation session so that the same monolith
    always gets the same fresh variable across the session's formulas.
    """

    def __init__(self) -> None:
        self.var_of_monolith: dict[Formula, str] = {}
        self.monolith_of_var: dict[str, Formula] = {}

    def fresh_for(self, monolith: Formula) -> str:
        if monolith in self.var_of_monolith:
            return self.var_of_monolith[monolith]
        name = f"m{len(self.var_of_monolith) + 1}"
        self.var_of_monolith[monolith] = name
        self.monolith_of_var[name] = monolith
        return name


def skeleton(f: Formula, sub_sig: Signature, mm: MonolithMap) -> tuple[Formula, MonolithMap]:
    """Replace maximal subformulas whose head lies outside sub_sig by variables.

    Connectives of sub_sig are kept; variables p are renamed to v_p; any other
    subformula is a monolith and is replaced by its fresh variable from mm.
    """
    def go(g: Formula) -> Formula:
        if isinstance(g, Var):
            return Var(f"v_{g.name}")
        if g.head in sub_sig:
            return App(g.head, tuple(go(a) for a in g.args))
        return Var(mm.fresh_for(g))

    return go(f), mm


def unskeleton(f: Formula, mm: MonolithMap) -> Formula:
    """Invert skeleton: restore monoliths and original variable names."""
    if isinstance(f, Var):
        if f.name in mm.monolith_of_var:
            return mm.monolith_of_var[f.name]
        if f.name.startswith("v_"):
            return Var(f.name[2:])
        raise KeyError(f"variable {f.name!r} unknown to this MonolithMap")
    return App(f.head, tuple(unskeleton(a, mm) for a in f.args))
