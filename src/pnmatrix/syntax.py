"""Signatures, formulas, parsing/printing, substitution and skeleton translation.

Formulas are finite trees built from a countable pool of propositional
variables and the connectives declared by a signature.  Any identifier not
declared in the ambient signature is a variable; declared nullary connectives
parse as applications with zero arguments.

Formulas are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): ``Var``/``App`` return the one live node for their
formula, so ``==`` is identity.  The table of live nodes is a plain dict
from a node's key to a weak reference that carries the key.  Finding a node
is one look-up and one dereference, without a lock; a new node is checked,
built with direct slot writes, and inserted under a lock after a second
look-up.  A dead node's reference removes its own entry, unless a new node
has taken the key since.

The two rewrites walk each node once.  ``skeleton`` keeps a memo per
subsignature in its ``MonolithMap``, so the formulas of one session share
their rebuilt subformulas.  ``apply_substitution`` and
``combine.axiom_instances`` compile a formula once (``compile_schema``) and
make an instance with one node look-up per compound node
(``instantiate``).  No function here recurses on formula depth.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Union


class ParseError(ValueError):
    """Raised on malformed formula text; carries the message and the byte
    offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message, self.offset = message, offset


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """An arity-indexed family of connective names.

    Names are unique across arities: a connective has exactly one arity,
    which is never negative.  Stored as a sorted tuple of (name, arity)
    pairs, however the pairs were given, so signatures are hashable and
    equal signatures compare equal.
    """

    connectives: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        pairs = tuple(sorted(self.connectives))
        for k, (name, arity) in enumerate(pairs):
            if arity < 0:
                raise ValueError(f"connective {name!r} has negative arity {arity}")
            if k and pairs[k - 1][0] == name:
                raise ValueError(f"connective {name!r} given twice")
        object.__setattr__(self, "connectives", pairs)

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Signature":
        return Signature(tuple(dict(mapping).items()))

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

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.connectives)

    def union(self, other: "Signature") -> "Signature":
        merged = dict(self._arity)
        for name, k in other.connectives:
            if merged.setdefault(name, k) != k:
                raise ValueError(
                    f"connective {name!r} declared with arities {merged[name]} and {k}"
                )
        return Signature.of(merged)

    def intersection(self, other: "Signature") -> "Signature":
        self.union(other)  # raises on a connective declared with two arities
        return Signature.of({n: k for n, k in self.connectives if n in other})

    def difference(self, other: "Signature") -> "Signature":
        theirs = other.names()
        return Signature.of({n: k for n, k in self.connectives if n not in theirs})

    def is_subsignature_of(self, other: "Signature") -> bool:
        theirs = other._arity
        return all(theirs.get(n) == k for n, k in self.connectives)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

#: the live nodes' entries (see ``_Entry``), under its name for a variable
#: and (head, args) for an application
_nodes: dict[object, "_Entry"] = {}
#: guards a new node's second look-up and insert; reentrant, as a collection inside may run any code
_intern_lock = threading.RLock()
#: larger nodes print their text when asked, so that a deep formula keeps no text per node
_TEXT_SIZE = 64
#: the closure order of nodes that all keep their text (see ``subformula_closure``)
_size_and_text = attrgetter("size", "_text")


class _Entry(weakref.ref):
    """The table's entry for a live node: a weak reference, so that a
    formula nothing else uses is freed, carrying the node's key, so that the
    node's death removes its own entry (``_forget``)."""

    __slots__ = ("key",)


def _forget(entry: _Entry, remove=_remove_dead_weakref, nodes=_nodes) -> None:
    """Drop a dead node's entry, unless a new node has taken its key since:
    ``remove`` deletes the key only while it maps to a dead reference, in
    one step, as ``weakref.WeakValueDictionary`` does."""
    remove(nodes, entry.key)


def _absent() -> None:
    """What a key no node holds looks up: a reference to nothing."""
    return None


class _Node:
    """What variables and applications share: one immutable node per formula,
    which copies and pickles give back.  ``size`` counts the nodes of the
    formula tree; ``_text`` is its printed form, or None above ``_TEXT_SIZE``."""

    __slots__ = ("_text", "__weakref__")

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __copy__(self, memo=None):
        return self

    __delattr__ = __setattr__
    __deepcopy__ = __copy__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {print_formula(self)}>"


def _intern(key, node: "Formula") -> "Formula":
    """The live node under key; if there is none, node, entered as the one.
    A thread that loses the race to insert gets the winner's node."""
    with _intern_lock:
        live = _nodes.get(key, _absent)()
        if live is None:
            entry = _new_entry(_Entry, node, _forget)
            _set_key(entry, key)
            _nodes[key] = entry
            return node
    return live


class Var(_Node):
    __slots__ = ("name",)
    head, args, size = None, (), 1  # so that formula walks need no case for variables

    def __new__(cls, name: str) -> "Var":
        try:
            node = _nodes.get(name, _absent)()
        except TypeError:  # unhashable: refused by name below
            node = None
        if node is None:
            if not isinstance(name, str):
                raise TypeError(f"a variable's name must be a str, not {name!r}")
            node = _new(cls)
            _set_name(node, name)
            _set_text(node, name)
            node = _intern(name, node)
        return node

    def __reduce__(self):
        return Var, (self.name,)


class App(_Node):
    __slots__ = ("head", "args", "size")

    def __new__(cls, head: str, args: Iterable["Formula"] = ()) -> "App":
        args = tuple(args)
        try:
            node = _nodes.get((head, args), _absent)()
        except TypeError:  # unhashable: refused by name below
            node = None
        if node is None:
            if not isinstance(head, str):
                raise TypeError(f"an application's head must be a str, not {head!r}")
            size, texts = 1, []
            for a in args:
                if not isinstance(a, _Node):
                    raise TypeError(f"an argument of {head!r} must be a formula, not {a!r}")
                size += a.size
                texts.append(a._text)
            text = None
            if size <= _TEXT_SIZE:  # and so are the arguments, which all have text
                text = f"{head}({', '.join(texts)})" if args else head
            node = _new(cls)
            _set_head(node, head)
            _set_args(node, args)
            _set_size(node, size)
            _set_text(node, text)
            node = _intern((head, args), node)
        return node

    def __reduce__(self):
        return App, (self.head, self.args)


Formula = Union[Var, App]

# a new node's or entry's slots are written directly, past the refusal in
# ``__setattr__`` and without a Python-level initialiser
_new, _new_entry, _set_key = object.__new__, weakref.ref.__new__, _Entry.key.__set__
_set_name, _set_text = Var.name.__set__, _Node._text.__set__
_set_head, _set_args, _set_size = App.head.__set__, App.args.__set__, App.size.__set__


def _walk(roots: Iterable[Formula]) -> dict[Formula, None]:
    """The distinct nodes of the roots, without recursion (a dict keeps their order fixed)."""
    nodes: dict[Formula, None] = {}
    stack = list(roots)
    while stack:
        g = stack.pop()
        if g not in nodes:
            nodes[g] = None
            stack.extend(g.args)
    return nodes


def _rebuild(f: Formula, leaf, keep, memo: dict[Formula, Formula]) -> Formula:
    """f with each maximal subformula g that is a variable, or whose head
    fails keep(g), replaced by leaf(g).  Depth first without recursion, so
    leaf sees the replaced subformulas left to right, and keep sees each
    node at most once.  memo maps the nodes rebuilt so far to their
    results, and gains f's; calls that pass one memo, with one leaf and
    keep, share it, so each node is rebuilt once."""
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the next node's arguments are all rebuilt
            g = stack.pop()
            memo[g] = App(g.head, tuple([memo[a] for a in g.args]))
        elif g not in memo:
            if g.head is not None and keep(g):
                stack += (g, None)
                stack += reversed(g.args)
            else:
                memo[g] = leaf(g)
    return memo[f]


def print_formula(f: Formula) -> str:
    """Canonical textual form; inverse of parse_formula."""
    return f._text if f._text is not None else print_formulas([f])[0]


def print_formulas(fs: Iterable[Formula]) -> list[str]:
    """The text of each of fs, without recursion.  A formula among fs is
    printed once and its text reused inside the larger ones, so a closure
    prints in linear time."""
    fs = list(fs)
    texts: dict[Formula, str] = {}
    for f in sorted(set(fs), key=formula_size):
        out, stack = [], [f]  # text pieces, and nodes and pieces still to write
        while stack:
            g = stack.pop()
            text = g if isinstance(g, str) else texts.get(g, g._text)
            if text is not None:
                out.append(text)
                continue
            stack.append(")")
            for i, a in enumerate(reversed(g.args)):
                stack += (", ", a) if i else (a,)
            stack.append(f"{g.head}(")
        texts[f] = "".join(out)
    return [texts[f] for f in fs]


def print_formula_list(fs: Iterable[Formula]) -> str:
    """A formula list as ``parse_formula_list`` reads it: ``-`` when empty."""
    return ", ".join(print_formulas(fs)) or "-"


def formula_size(f: Formula) -> int:
    """Number of nodes in the formula tree (repeated subtrees counted each time)."""
    return f.size


def formula_key(f: Formula) -> tuple[int, str]:
    """Deterministic ordering key: smaller first, ties broken textually."""
    return f.size, print_formula(f)


def subformulas(f: Formula) -> frozenset[Formula]:
    return frozenset(_walk([f]))


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in _walk([f]) if g.head is None)


def subformula_closure(formulas: Iterable[Formula]) -> list[Formula]:
    """All subformulas of the given set, in increasing subformula order.

    The order is that of ``formula_key``.  Nodes above ``_TEXT_SIZE`` are
    printed only where another one has the same size, since only then does
    the text decide their order.
    """
    nodes = _walk(formulas)
    big = [g for g in nodes if g._text is None]
    if not big:
        return sorted(nodes, key=_size_and_text)
    sizes = Counter(g.size for g in big)
    tied = [g for g in big if sizes[g.size] > 1]
    text = dict(zip(tied, print_formulas(tied)))
    return sorted(nodes, key=lambda g: (g.size, g._text or text.get(g, "")))


def ill_formed_node(nodes: Iterable[Formula], sig: Signature) -> Optional[Formula]:
    """The first of the nodes that does not itself (its arguments aside) fit the signature, or None."""
    arity = sig._arity
    for g in nodes:
        if (g.name in arity) if g.head is None else arity.get(g.head) != len(g.args):
            return g
    return None


def well_formed(f: Formula, sig: Signature) -> bool:
    """True iff every node of f fits the signature (see ``ill_formed_node``)."""
    return ill_formed_node(_walk([f]), sig) is None


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
    return _parse(text, sig, many=False)[0]


def parse_formula_list(text: str, sig: Signature) -> tuple[Formula, ...]:
    """Parse a comma-separated (possibly empty, or `-`) list of formulas."""
    return () if text.strip() in ("", "-") else tuple(_parse(text, sig, many=True))


def _parse(text: str, sig: Signature, many: bool) -> list[Formula]:
    """The formulas of text, a comma-separated list of them if many.  Open
    applications wait on an explicit stack, so depth costs no recursion."""
    tokens = _tokenize(text)
    pos = 0

    def take(kind: str):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def app(name: str, args: list[Formula], off: int) -> App:
        if name not in sig:
            raise ParseError(f"undeclared connective {name!r}", off)
        if sig.arity(name) != len(args):
            raise ParseError(
                f"connective {name!r} expects {sig.arity(name)} arguments, got {len(args)}", off
            )
        return App(name, args)

    # (head, offset, arguments so far) of each open application, above a
    # root entry that collects the formulas read
    stack: list[tuple[str, int, list[Formula]]] = [("", 0, [])]
    while True:
        _, name, off = take("ident")
        if tokens[pos][0] == "(":
            pos += 1
            stack.append((name, off, []))
            continue
        stack[-1][2].append(app(name, [], off) if name in sig else Var(name))
        while len(stack) > 1 and tokens[pos][0] != ",":  # the argument ends an application
            take(")")
            head, head_off, args = stack.pop()
            stack[-1][2].append(app(head, args, head_off))
        if len(stack) == 1 and not (many and tokens[pos][0] == ","):
            take("eof")
            return stack[0][2]
        pos += 1  # the ',' before the next argument or formula


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """A total map from variables to formulas, identity outside its support."""

    mapping: tuple[tuple[str, Formula], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, Formula]) -> "Substitution":
        return Substitution(tuple(sorted(mapping.items(), key=lambda kv: kv[0])))

    def __call__(self, name: str) -> Formula:
        for k, v in self.mapping:
            if k == name:
                return v
        return Var(name)


def compile_schema(f: Formula) -> tuple:
    """f as a plan for its instances: (names, steps, root).  names are f's
    variables, sorted; slot i holds the target of names[i].  steps are f's
    distinct compound nodes in post-order, each its head and the slots of
    its arguments, and fills the next slot; root is the slot of f."""
    names = tuple(sorted(variables(f)))
    slot = {Var(n): i for i, n in enumerate(names)}
    steps = []
    stack = [f]
    while stack:
        g = stack[-1]
        todo = [a for a in g.args if a not in slot]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        if g not in slot:
            slot[g] = len(slot)
            steps.append((g.head, tuple([slot[a] for a in g.args])))
    return names, tuple(steps), slot[f]


def instantiate(schema: tuple, targets: Iterable[Formula]) -> Formula:
    """The instance of a compiled schema that puts targets[i] for its
    variable names[i]: one node made or found per compound node."""
    _, steps, root = schema
    filled = list(targets)
    for head, slots in steps:
        filled.append(App(head, tuple(map(filled.__getitem__, slots))))
    return filled[root]


def apply_substitution(f: Formula, s: Substitution) -> Formula:
    schema = compile_schema(f)
    return instantiate(schema, [s(name) for name in schema[0]])


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

class MonolithMap:
    """Session state for skeleton translation into a subsignature.

    Maintains a bijection between monolith formulas (head outside the
    subsignature) and fresh variables named "m1", "m2", ... in first-encounter
    order, plus an injective renaming "p" -> "v_p" of ordinary variables; a
    name the subsignature declares gets one more "m" or "v_" in front.
    One map should be used per translation session so that the same monolith
    always gets the same fresh variable across the session's formulas.
    """

    def __init__(self) -> None:
        self.var_of_monolith: dict[Formula, str] = {}
        self.monolith_of_var: dict[str, Formula] = {}
        #: per subsignature, the skeleton of every node translated so far
        self.skeletons: dict[Signature, dict[Formula, Formula]] = {}

    def fresh_for(self, monolith: Formula, sub_sig: Signature) -> str:
        if monolith in self.var_of_monolith:
            return self.var_of_monolith[monolith]
        name = f"m{len(self.var_of_monolith) + 1}"
        while name in sub_sig:
            name = f"m{name}"
        self.var_of_monolith[monolith] = name
        self.monolith_of_var[name] = monolith
        return name


def skeleton(f: Formula, sub_sig: Signature, mm: MonolithMap) -> tuple[Formula, MonolithMap]:
    """Replace maximal subformulas whose head lies outside sub_sig by variables.

    Connectives of sub_sig are kept; variables p are renamed to v_p; any other
    subformula is a monolith and is replaced by its fresh variable from mm.
    Neither kind of name is one that sub_sig declares (see ``MonolithMap``).
    The calls of one session into one subsignature share a memo in mm, so
    a node skeletonised once is not walked again.
    """
    def leaf(g: Formula) -> Var:
        name = f"v_{g.name}" if g.head is None else mm.fresh_for(g, sub_sig)
        while name in arity:  # only a variable's (fresh_for's are undeclared)
            name = f"v_{name}"
        return Var(name)

    arity = sub_sig._arity
    memo = mm.skeletons.setdefault(sub_sig, {})
    return _rebuild(f, leaf, lambda g: g.head in arity, memo), mm
