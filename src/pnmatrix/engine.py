"""Decision of finite-premise consequence by countermodel search.

A query fails over a matrix exactly when some prevaluation on the subformula
closure of the query designates every premise and no conclusion, with all its
values drawn from one viable component (the component's restriction is total,
so such a prevaluation extends to a full valuation).  The closure is the only
place the search looks, so each query is compiled once into integer form:
node i is the i-th closure formula in increasing subformula order, with the
ids of its arguments and of the compound nodes that use it (``_Closure``).
All components share that index.

Per component, every node starts with a bitmask domain (bit j is the matrix's
value j): the component's mask, narrowed to designated values for premises
and to undesignated ones for conclusions.  Arc consistency (AC-3 over the
table masks of ``CompiledMatrix``) then removes values that no prevaluation
can use, and a depth-first search assigns nodes in id order.  A variable
tries the values of its domain, a compound node those of its table entry
that are in its domain; both in ascending value index.  That order is a
contract: it fixes the first countermodel and ``assignments_explored``.
Propagation removes only values that belong to no prevaluation, so it
changes neither; its queue order is free, since the fixpoint is unique.

``decide_batch`` is the one driver: it answers a list of queries with one
premise set, and ``decide_multiple`` is its one-query case.  It indexes one
closure over the premises and every conclusion, and per component runs the
fixpoint once, with the premises and the conclusions that every query shares
narrowed.  A query then starts from those domains on its own sub-closure (the
ids its formulas reach, ascending, which is its own closure order), narrows
its other conclusions and revises only the arcs at them.  That is sound
because the component is viable: every entry over it meets it, so a node
outside the sub-closure can always take a value, never removes one from a
node inside, and the query reaches the same fixpoint, first countermodel and
``assignments_explored`` as on its own.  The shared conclusions lie in every
sub-closure, so the argument covers them.  With one query, the sub-closure
is the whole closure and the shared fixpoint is the query's own.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .matrix_core import CompiledMatrix, PNMatrix, mask_bits, viable_components
from .syntax import (
    App,
    Formula,
    Signature,
    Var,
    print_formula,
    print_formulas,
    subformula_closure,
    well_formed_node,
)


@dataclass(frozen=True)
class Countermodel:
    assignment: tuple[tuple[Formula, str], ...]
    component: frozenset[str]

    def as_dict(self) -> dict[Formula, str]:
        return dict(self.assignment)

    def pretty(self) -> str:
        texts = print_formulas(f for f, _ in self.assignment)
        return ", ".join(f"{t} -> {v}" for t, (_, v) in zip(texts, self.assignment))


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    countermodel: Optional[Countermodel] = None
    components_tried: int = 0
    assignments_explored: int = 0

    def __bool__(self) -> bool:
        return self.answer == "yes"


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class _Closure:
    """A subformula closure, checked against a signature and indexed by integers.

    Node i is the i-th formula given (``node`` maps formulas to ids), and
    arguments precede the nodes that use them.  ``heads[i]`` is its
    connective (None for a variable), ``args[i]`` its argument ids,
    ``distinct[i]`` those ids without repeats, ``positions[i]`` the position
    of each argument within ``distinct[i]`` (None when there are no
    repeats), and ``parents[i]`` the compound nodes with node i among their
    arguments.
    """

    def __init__(self, formulas: Sequence[Formula], sig: Signature):
        for f in formulas:  # each node once; the first bad one is named
            if not well_formed_node(f, sig):
                raise ValueError(f"formula {print_formula(f)} not well-formed over the matrix signature")
        self.node = node = {f: i for i, f in enumerate(formulas)}
        self._index([f.head for f in formulas], [tuple([node[a] for a in f.args]) for f in formulas])

    def _index(self, heads: list[Optional[str]], args: list[tuple[int, ...]]) -> None:
        self.heads, self.args = heads, args
        self.distinct = distinct = [tuple(dict.fromkeys(a)) for a in args]
        self.positions = [
            None if len(d) == len(a) else tuple(d.index(x) for x in a)
            for a, d in zip(args, distinct)
        ]
        self.parents: list[list[int]] = [[] for _ in args]
        for i, d in enumerate(distinct):
            for a in d:
                self.parents[a].append(i)

    def reach(self, roots: Iterable[int], known: Iterable[int] = ()) -> set[int]:
        """The ids the roots reach through arguments, together with known,
        which must be closed under arguments already."""
        out = set(known)
        stack = [i for i in roots if i not in out]
        while stack:
            i = stack.pop()
            if i not in out:
                out.add(i)
                stack.extend(a for a in self.distinct[i] if a not in out)
        return out

    def sub(self, ids: Sequence[int]) -> "_Closure":
        """The sub-closure on ids (ascending, closed under arguments),
        renumbered from 0 in that order; it has no ``node`` map."""
        local = dict(zip(ids, range(len(ids))))
        view = object.__new__(_Closure)
        view._index(
            [self.heads[g] for g in ids], [tuple([local[a] for a in self.args[g]]) for g in ids]
        )
        return view


def _propagate(cl: _Closure, comp: CompiledMatrix, dom: list[int], narrowed=None) -> bool:
    """Arc consistency over the closure; False if some domain empties.

    Revising node i keeps the values of i, and of each of its arguments,
    that occur in some combination of argument values whose table entry
    meets i's domain.  Only values that occur in no prevaluation compatible
    with the current domains are removed, so the solution set is untouched.
    With ``narrowed``, the domains are at a fixpoint except at those nodes,
    so only the arcs at them are revised first; by default every arc is.
    """
    heads, parents = cl.heads, cl.parents
    if narrowed is None:
        pending = [i for i, h in enumerate(heads) if h is not None]
        queued = [h is not None for h in heads]
    else:
        pending, queued = [], [False] * len(heads)
        for g in narrowed:
            for h in parents[g] if heads[g] is None else parents[g] + [g]:
                if not queued[h]:
                    queued[h] = True
                    pending.append(h)
    while pending:
        i = pending.pop()
        queued[i] = False
        table = comp.tables[heads[i]]
        own = dom[i]
        distinct, positions = cl.distinct[i], cl.positions[i]
        out = 0
        support = [0] * len(distinct)
        for combo in product(*[mask_bits(dom[g]) for g in distinct]):
            hit = table[combo if positions is None else tuple(combo[k] for k in positions)] & own
            if hit:
                out |= hit
                for k, x in enumerate(combo):
                    support[k] |= 1 << x
        changed = []
        if out != own:
            dom[i] = out
            changed.append(i)
        for g, s in zip(distinct, support):
            if s != dom[g]:
                dom[g] = s
                changed.append(g)
        for g in changed:
            if not dom[g]:
                return False
            # i is at its fixpoint now; the users of g, and the arcs of g
            # itself when g is a compound argument, may not be
            for h in parents[g] if heads[g] is None else parents[g] + [g]:
                if h != i and not queued[h]:
                    queued[h] = True
                    pending.append(h)
    return True


def _search_component(comp: CompiledMatrix, cl: _Closure, dom: list[int], collector=None):
    """Backtracking search for prevaluations within the given domains.

    ``dom`` holds each node's value mask, at the arc-consistency fixpoint
    (``_propagate``); it is only read.  With collector=None, returns
    (assignment or None, explored-count), the assignment a list of value
    indices by node id, for the first solution in search order; with a
    (key, set) collector, enumerates all solutions, adding key(assignment)
    of each to the set.
    """
    n = len(dom)
    if n == 0:
        return [], 0
    heads, args, tables = cl.heads, cl.args, comp.tables
    assignment = [0] * n
    explored = 0

    def candidates(i: int):
        if heads[i] is None:
            return iter(mask_bits(dom[i]))
        entry = tables[heads[i]][tuple([assignment[a] for a in args[i]])]
        return iter(mask_bits(entry & dom[i]))

    # depth-first over node ids, one candidate iterator per assigned node
    stack = [candidates(0)]
    while stack:
        i = len(stack) - 1
        v = next(stack[i], None)
        if v is None:
            stack.pop()
            continue
        assignment[i] = v
        explored += 1
        if i + 1 < n:
            stack.append(candidates(i + 1))
        elif collector is None:
            return assignment, explored
        else:
            key, acc = collector
            acc.add(key(assignment))
    return None, explored


def decide_multiple(m: PNMatrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> Verdict:
    """Does every valuation designating all of gamma designate some of delta?"""
    return decide_batch(m, gamma, [delta])[0]


def decide_single(m: PNMatrix, gamma: Iterable[Formula], a: Formula) -> Verdict:
    return decide_multiple(m, gamma, [a])


def decide_batch(
    m: PNMatrix, gamma: Iterable[Formula], deltas: Iterable[Iterable[Formula]]
) -> list[Verdict]:
    """``[decide_multiple(m, gamma, delta) for delta in deltas]``, with one
    fixpoint per component shared by all the queries (see the module
    docstring)."""
    gamma = tuple(gamma)
    deltas = [tuple(delta) for delta in deltas]
    if not deltas:
        return []
    omega = subformula_closure([*gamma, *chain.from_iterable(deltas)])
    n = len(omega)
    cl = _Closure(omega, m.sig)
    node, comp = cl.node, m.compiled
    designated, undesignated = comp.designated, ~comp.designated
    common = set(deltas[0]).intersection(*deltas[1:])
    premises = [node[f] for f in gamma]
    owns = [[node[f] for f in delta if f not in common] for delta in deltas]
    # every sub-closure holds the premises and the shared conclusions; when no
    # query has conclusions of its own, that is the whole closure
    base = cl.reach(premises + [node[f] for f in common]) if any(owns) else None
    fixpoints: list[Optional[list[int]]] = []  # per component reached: domains, or None
    verdicts = []
    for own in owns:
        view = None
        explored = 0
        for tried, (w_names, w) in enumerate(comp.components, start=1):
            if tried > len(fixpoints):
                dom = [w] * n
                for i in premises:
                    dom[i] &= designated
                for f in common:
                    dom[node[f]] &= undesignated
                fixpoints.append(dom if all(dom) and _propagate(cl, comp, dom) else None)
            dom = fixpoints[tried - 1]
            # an empty domain empties one in the query's own fixpoint as well
            if dom is None or not all(dom[c] & undesignated for c in own):
                continue
            if view is None:  # the query's sub-closure, renumbered unless it is all of cl
                ids = range(n) if base is None else sorted(cl.reach(own, base))
                view = cl if len(ids) == n else cl.sub(ids)
                local = own if view is cl else [bisect_left(ids, c) for c in own]
            if local or view is not cl:
                dom = [dom[g] for g in ids]
                for c in local:
                    dom[c] &= undesignated
                if local and not _propagate(view, comp, dom, local):
                    continue
            solution, k = _search_component(comp, view, dom)
            explored += k
            if solution is not None:
                assignment = tuple((omega[g], m.values[x]) for g, x in zip(ids, solution))
                verdicts.append(Verdict(
                    answer="no",
                    countermodel=Countermodel(assignment=assignment, component=w_names),
                    components_tried=tried,
                    assignments_explored=explored,
                ))
                break
        else:
            verdicts.append(Verdict(
                answer="yes",
                components_tried=len(comp.components),
                assignments_explored=explored,
            ))
    return verdicts


def possible_values(m: PNMatrix, a: Formula, x: str) -> frozenset[str]:
    """Exact set of values a one-variable formula can take when its variable
    is x; empty when x is spurious.  Read from ``possible_value_vector``."""
    vector = possible_value_vector(m, a)
    if x not in m.values:
        raise ValueError(f"unknown value {x!r}")
    return vector[m.values.index(x)]


def possible_value_vector(m: PNMatrix, a: Formula) -> tuple[frozenset[str], ...]:
    """For each value x of m in order, the exact set of values a one-variable
    formula can take when its variable is x.

    Enumerates the prevaluations on sub(a) within each viable component, with
    the variable free; the set of a spurious x is empty.
    """
    omega = subformula_closure([a])
    cl = _Closure(omega, m.sig)
    variables = [cl.node[g] for g in omega if isinstance(g, Var)]
    if len(variables) > 1:
        raise ValueError("possible_values expects a formula with at most one variable")
    comp = m.compiled
    out: list[set[int]] = [set() for _ in m.values]
    # with a variable, (variable value, value of a) pairs; else values of a,
    # the same under every value of the component
    key = itemgetter(*variables, cl.node[a])
    for _, w in comp.components:
        dom = [w] * len(omega)
        acc: set = set()
        if _propagate(cl, comp, dom):
            _search_component(comp, cl, dom, collector=(key, acc))
        if variables:
            for x, v in acc:
                out[x].add(v)
        else:
            for x in mask_bits(w):
                out[x] |= acc
    return tuple(frozenset(m.values[i] for i in s) for s in out)


def check_countermodel(
    m: PNMatrix,
    gamma: Iterable[Formula],
    delta: Iterable[Formula],
    cm: Countermodel,
) -> list[str]:
    """Re-verify a countermodel from scratch; empty list means ok."""
    gamma, delta = tuple(gamma), tuple(delta)
    violations: list[str] = []
    assignment = cm.as_dict()
    if len(assignment) != len(cm.assignment):
        counts = Counter(f for f, _ in cm.assignment)
        violations += [
            f"{print_formula(f)} is assigned {k} times" for f, k in counts.items() if k > 1
        ]
    omega = set(subformula_closure(gamma + delta))
    if set(assignment) != omega:
        violations.append("assignment domain is not the subformula closure of the query")
    vals = set(m.values)
    image = set(assignment.values())
    if not image <= vals:
        violations.append(f"unknown values {sorted(image - vals)} in assignment")
        return violations
    for f, v in assignment.items():
        if isinstance(f, App):
            try:
                entry = m.entry(f.head, tuple(assignment[a] for a in f.args))
            except KeyError:
                violations.append(f"argument of {print_formula(f)} missing from assignment")
                continue
            if v not in entry:
                violations.append(
                    f"{print_formula(f)} -> {v} violates its table entry"
                )
    report = viable_components(m)
    if not any(image <= w for w in report.maximal):
        violations.append("image of the assignment lies in no viable component")
    for f in gamma:
        if assignment.get(f) not in m.designated:
            violations.append(f"premise {print_formula(f)} not designated")
    for f in delta:
        if assignment.get(f) in m.designated:
            violations.append(f"conclusion {print_formula(f)} designated")
    return violations
