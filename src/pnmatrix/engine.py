"""Decision of finite-premise consequence by countermodel search.

A query fails over a matrix exactly when some prevaluation on the subformula
closure of the query designates every premise and no conclusion, with all its
values drawn from one viable component (the component's restriction is total,
so such a prevaluation extends to a full valuation).  The search backtracks
over the closure in increasing subformula order, per maximal viable component,
after an arc-consistency pass that prunes locally impossible values (pruned
values belong to no prevaluation, so the first countermodel in search order
is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .matrix_core import CompiledMatrix, PNMatrix, viable_components
from .syntax import (
    App,
    Formula,
    Var,
    print_formula,
    subformula_closure,
    well_formed,
)


@dataclass(frozen=True)
class Countermodel:
    assignment: tuple[tuple[Formula, str], ...]
    component: frozenset[str]

    def as_dict(self) -> dict[Formula, str]:
        return dict(self.assignment)

    def pretty(self) -> str:
        return ", ".join(
            f"{print_formula(f)} -> {v}" for f, v in self.assignment
        )


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    countermodel: Optional[Countermodel] = None
    components_tried: int = 0
    assignments_explored: int = 0
    note: str = ""

    def __bool__(self) -> bool:
        return self.answer == "yes"


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _propagate(omega, parents, poss, comp) -> bool:
    """Arc-consistency over the closure; False if some value set empties.

    Only removes values that occur in no prevaluation compatible with the
    current sets, so the solution set (and hence the first countermodel in
    deterministic order) is untouched.
    """
    from itertools import product

    pending = list(omega)
    in_queue = set(pending)
    while pending:
        f = pending.pop()
        in_queue.discard(f)
        if not isinstance(f, App):
            continue
        table = comp.tables[f.head]
        distinct = list(dict.fromkeys(f.args))
        changed: list[Formula] = []
        # feasible output values, and per-argument support
        out_ok = set()
        support = {g: set() for g in distinct}
        fset = poss[f]
        for combo in product(*(sorted(poss[g]) for g in distinct)):
            env = dict(zip(distinct, combo))
            entry = table[tuple(env[a] for a in f.args)]
            hits = [y for y in entry if y in fset]
            if hits:
                out_ok.update(hits)
                for g in distinct:
                    support[g].add(env[g])
        if out_ok != fset:
            poss[f] = out_ok
            changed.append(f)
        for g in distinct:
            if support[g] != poss[g]:
                poss[g] = support[g]
                changed.append(g)
        for g in changed:
            if not poss[g]:
                return False
            for h in parents.get(g, ()) + ((g,) if isinstance(g, App) else ()):
                if h not in in_queue:
                    pending.append(h)
                    in_queue.add(h)
    return True


def _search_component(comp: CompiledMatrix, omega: Sequence[Formula], w: frozenset[int],
                      must_designate, must_not_designate, fixed, collector=None):
    """Backtracking search for prevaluations over one viable component.

    With collector=None, returns (assignment or None, explored-count) for the
    first solution in deterministic order; with a (formula, set) collector,
    enumerates all solutions, accumulating the value of the given formula.
    """
    parents: dict[Formula, tuple[App, ...]] = {}
    for f in omega:
        if isinstance(f, App):
            for a in set(f.args):
                parents[a] = parents.get(a, ()) + (f,)

    poss: dict[Formula, set[int]] = {}
    for f in omega:
        allowed = set(w)
        if f in must_designate:
            allowed &= comp.designated
        if f in must_not_designate:
            allowed -= comp.designated
        if f in fixed:
            allowed &= {fixed[f]}
        poss[f] = allowed
        if not allowed:
            return None, 0

    if not _propagate(omega, parents, poss, comp):
        return None, 0

    order = list(omega)
    n = len(order)
    if n == 0:
        return {}, 0
    assignment: dict[Formula, int] = {}
    explored = 0

    def candidates(f: Formula):
        if isinstance(f, Var):
            return iter(sorted(poss[f]))
        entry = comp.tables[f.head][tuple(assignment[a] for a in f.args)]
        return iter([v for v in entry if v in poss[f]])

    # depth-first over order, one candidate iterator per assigned position
    stack = [candidates(order[0])]
    while stack:
        i = len(stack) - 1
        f = order[i]
        v = next(stack[i], None)
        if v is None:
            stack.pop()
            assignment.pop(f, None)
            continue
        assignment[f] = v
        explored += 1
        if i + 1 < n:
            stack.append(candidates(order[i + 1]))
        elif collector is None:
            return dict(assignment), explored
        else:
            g, acc = collector
            acc.add(assignment[g])
    return None, explored


def decide_multiple(m: PNMatrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> Verdict:
    """Does every valuation designating all of gamma designate some of delta?"""
    gamma = tuple(dict.fromkeys(gamma))
    delta = tuple(dict.fromkeys(delta))
    for f in gamma + delta:
        if not well_formed(f, m.sig):
            raise ValueError(f"formula {print_formula(f)} not well-formed over the matrix signature")

    comp = m.compiled
    omega = subformula_closure(gamma + delta)
    gset, dset = set(gamma), set(delta)
    explored_total = 0
    for tried, (w_names, w) in enumerate(comp.components, start=1):
        solution, explored = _search_component(
            comp, omega, w, gset, dset, fixed={}
        )
        explored_total += explored
        if solution is not None:
            assignment = tuple(
                (f, m.values[solution[f]]) for f in omega
            )
            return Verdict(
                answer="no",
                countermodel=Countermodel(assignment=assignment, component=w_names),
                components_tried=tried,
                assignments_explored=explored_total,
            )
    return Verdict(
        answer="yes",
        components_tried=len(comp.components),
        assignments_explored=explored_total,
    )


def decide_single(m: PNMatrix, gamma: Iterable[Formula], a: Formula) -> Verdict:
    return decide_multiple(m, gamma, [a])


def possible_values(m: PNMatrix, a: Formula, x: str) -> frozenset[str]:
    """Exact set of values a one-variable formula can take when its variable is x.

    Enumerates prevaluations on sub(a) within each viable component containing
    x; empty when x is spurious.
    """
    if not well_formed(a, m.sig):
        raise ValueError(f"formula {print_formula(a)} not well-formed over the matrix signature")
    vars_of = {g for g in subformula_closure([a]) if isinstance(g, Var)}
    if len(vars_of) > 1:
        raise ValueError("possible_values expects a formula with at most one variable")
    if x not in m.values:
        raise ValueError(f"unknown value {x!r}")
    comp = m.compiled
    xi = comp.index[x]
    omega = subformula_closure([a])
    acc: set[int] = set()
    for w_names, w in comp.components:
        if x not in w_names:
            continue
        fixed = {next(iter(vars_of)): xi} if vars_of else {}
        _search_component(
            comp, omega, w, set(), set(), fixed=fixed, collector=(a, acc)
        )
    return frozenset(m.values[i] for i in acc)


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
