"""Decision of finite-premise consequence by countermodel search.

A query fails over a matrix exactly when some prevaluation on the subformula
closure of the query designates every premise and no conclusion, with all its
values drawn from one viable component (the component's restriction is total,
so such a prevaluation extends to a full valuation).  The closure is the only
place the search looks, so it is compiled once into integer form: node i is
the i-th closure formula in increasing subformula order, with the ids of its
arguments and of the compound nodes that use it (``Closure``).  All
components share that index.

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
A revision is a function of the connective's table and a few masks, so each
compiled matrix remembers the revisions it has made (``_propagate``).  The
tables are nested lists indexed by one argument value after another, so a
revision scans a table row per combination of the earlier arguments'
values, and the search reads an entry by indexing: no argument tuple is
built or hashed.

A ``PremiseContext`` holds one premise set over an indexed closure and runs
the fixpoint once per component, on first need, with the premises narrowed
(and, in a batch, the conclusions every query shares).  A query then starts
from those domains on its own sub-closure, the ids its formulas reach: it
narrows its other conclusions, revises only the arcs inside, and the search
walks those ids in ascending order, which is their own closure order, in
place on the shared index.  That is sound because the component is viable:
every entry over it meets it, so a node outside the sub-closure can always
take a value and never removes one from a node inside, and the query
reaches the same fixpoint, first countermodel and ``assignments_explored``
as on its own closure.  ``decide_batch``, the one driver, indexes the
premises and every conclusion and asks one context each query;
``decide_multiple`` is its one-query case.  The saturation refuter indexes
its formula pool once and makes one context per theory base.

A context can also be grown by one premise b (``with_premise``).  The
fixpoint of gamma plus b in a component is then the fixpoint of gamma
there, with b narrowed to designated values and propagated from b alone:
the greatest arc-consistent fixpoint below given domains is unique, and
gamma's lies between that of gamma plus b and the domains it starts from.
Each grown fixpoint is made on first need, from the parent's, which is made
on first need in turn; the sub-closure every query reaches is walked only
when the context first searches.

A context also keeps and consults countermodels.  A countermodel found by
``countermodel_mask`` is extended over the rest of the closure in
ascending id order within its component: each node takes the lowest
undesignated value it can, else the lowest, among the component's values
for a variable and among those of its table entry for a compound node
(there is one, since the component is viable).  The premises lie in the
searched sub-closure, so the extension still designates them all.  It is
a valuation of the whole closure within one viable component, so it
serves any premise set over the closure: if it designates the set S, it
refutes every single conclusion outside S, and every conclusion set that
misses S, from any premises inside S.  So its designation mask is kept,
in one list that a context without a parent starts and every context
grown from it shares, and each context reads from that list the masks
that designate its own premises.  ``entails`` answers "no" without a
search when one of them misses the whole query.  ``unentailed`` sweeps a
list of candidates for those the premises do not entail singly; a
candidate that one of them leaves undesignated is refuted without a search
of its own, and so is one that a countermodel found earlier in the sweep
leaves undesignated.  The possible values of a one-variable formula come
from the same first-solution search, asked again with each value found
dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Optional, Sequence

from .matrix_core import CompiledMatrix, PNMatrix, mask_bits, viable_components
from .syntax import (
    Formula,
    Signature,
    Var,
    ill_formed_node,
    print_formula,
    print_formulas,
    subformula_closure,
)


#: Revisions a compiled matrix remembers (``CompiledMatrix.revisions``); the
#: memo is emptied when it holds this many.
REVISION_CAP = 1 << 14


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

class Closure:
    """A subformula closure, checked against a signature and indexed by integers.

    Node i is ``formulas[i]``, the i-th subformula of ``roots`` (``node``
    maps formulas to ids), and arguments precede the nodes that use them.
    ``heads[i]`` is its connective (None for a variable), ``args[i]`` its
    argument ids, ``distinct[i]`` those ids without repeats, ``positions[i]``
    the position of each argument within ``distinct[i]`` (None when there
    are no repeats), ``keys[i]`` the head of its revision key (``heads[i]``,
    or ``(heads[i], positions[i])`` when arguments repeat), and ``watch[i]``
    the compound nodes with node i among their arguments, then node i itself
    when it is compound: the nodes whose arcs a change of node i's domain
    concerns (see ``_propagate``).  ``compound`` lists the compound ids in
    ascending order and ``is_compound[i]`` marks them: a full propagation
    starts with those as its queue and its queued marks.  The index is built
    in one pass over the closure.
    """

    def __init__(self, roots: Sequence[Formula], sig: Signature):
        self.roots = roots
        self.formulas = formulas = subformula_closure(roots)
        bad = ill_formed_node(formulas, sig)  # each node once; the first bad one is named
        if bad is not None:
            raise ValueError(f"formula {print_formula(bad)} not well-formed over the matrix signature")
        self.node = node = {}
        self.heads = heads = []
        self.args = args_of = []
        self.distinct = distinct_of = []
        self.positions = positions_of = []
        self.keys = keys = []
        self.watch = watch = []
        self.compound = compound = []
        self.is_compound = is_compound = []
        for i, f in enumerate(formulas):
            node[f] = i
            h = f.head
            heads.append(h)
            watch.append([])
            if h is None:
                args_of.append(())
                distinct_of.append(())
                positions_of.append(None)
                keys.append(None)
                is_compound.append(False)
                continue
            args = distinct = tuple([node[a] for a in f.args])
            positions = None
            if len(args) > 1 and len(set(args)) < len(args):
                distinct = tuple(dict.fromkeys(args))
                positions = tuple([distinct.index(x) for x in args])
            args_of.append(args)
            distinct_of.append(distinct)
            positions_of.append(positions)
            keys.append(h if positions is None else (h, positions))
            for a in distinct:
                watch[a].append(i)
            compound.append(i)
            is_compound.append(True)
        # each compound node watches itself after every node that uses it
        for i in compound:
            watch[i].append(i)

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


def _propagate(cl: Closure, comp: CompiledMatrix, dom: list[int], narrowed=None, inside=None) -> bool:
    """Arc consistency over the closure; False if some domain empties.

    Revising node i keeps the values of i, and of each of its arguments,
    that occur in some combination of argument values whose table entry
    meets i's domain.  Only values that occur in no prevaluation compatible
    with the current domains are removed, so the solution set is untouched.
    A change at node g queues the arcs of ``cl.watch[g]``, i's own excepted.
    With ``narrowed``, the domains are at a fixpoint except at those nodes,
    so only the arcs at them are revised first; by default every arc is.
    With ``inside`` (ids closed under arguments, holding ``narrowed``), only
    the arcs of nodes inside are revised; over a viable component the nodes
    outside constrain nothing inside (see the module docstring).

    A revision's result, ``(out, *support)`` with i's new mask and then each
    distinct argument's, depends only on i's connective, ``positions[i]``,
    i's mask and its arguments' masks, so it is looked up in
    ``comp.revisions`` under that key and computed only on a miss: one
    table row per combination of the other arguments' values is scanned
    over the last argument's values, or, when arguments repeat, every
    combination of the distinct arguments' values is looked up.  The memo
    holds no verdict and nothing of a query, and a hit returns what the
    scan would, so the fixpoint is the same.  It is emptied when it holds
    ``REVISION_CAP`` entries.
    """
    heads, watch = cl.heads, cl.watch
    if narrowed is None:
        pending, queued = cl.compound.copy(), cl.is_compound.copy()
    else:
        # a node outside the sub-closure counts as queued, so it never is
        pending, queued = [], [inside is not None] * len(heads)
        for i in inside or ():
            queued[i] = False
        for g in narrowed:
            for h in watch[g]:
                if not queued[h]:
                    queued[h] = True
                    pending.append(h)
    keys, distinct_of, revisions = cl.keys, cl.distinct, comp.revisions
    while pending:
        # i stays marked as queued while it is revised: it is at its
        # fixpoint afterwards, so no change it makes queues it again
        i = pending.pop()
        distinct = distinct_of[i]
        if len(distinct) == 1:
            key = (keys[i], dom[i], dom[distinct[0]])
        elif len(distinct) == 2:
            key = (keys[i], dom[i], dom[distinct[0]], dom[distinct[1]])
        else:
            key = (keys[i], dom[i], *[dom[g] for g in distinct])
        revision = revisions.get(key)
        if revision is None:
            if len(revisions) >= REVISION_CAP:
                revisions.clear()
            revisions[key] = revision = _revise(comp.tables[heads[i]], cl.positions[i], key[1:])
        for g, s in zip((i, *distinct), revision):
            if s != dom[g]:
                if not s:  # nothing meets i's domain: every mask of the revision is empty
                    dom[i] = 0
                    for a in distinct:
                        dom[a] = 0
                    return False
                dom[g] = s
                for h in watch[g]:
                    if not queued[h]:
                        queued[h] = True
                        pending.append(h)
        queued[i] = False
    return True


def _revise(table, positions, masks) -> tuple[int, ...]:
    """``(out, *support)`` for one node: masks holds its own mask, then its
    distinct arguments' (see ``_propagate``)."""
    own, *doms = masks
    if not doms:
        return (table & own,)
    support = [0] * len(doms)
    out = 0
    if positions is None:
        *first, last = [mask_bits(d) for d in doms]
        for prefix in product(*first):
            row = table
            for x in prefix:
                row = row[x]
            seen = found = 0
            for z in last:
                hit = row[z] & own
                if hit:
                    found |= hit
                    seen |= 1 << z
            if found:
                out |= found
                support[-1] |= seen
                for k, x in enumerate(prefix):
                    support[k] |= 1 << x
    else:
        for combo in product(*[mask_bits(d) for d in doms]):
            entry = table
            for k in positions:
                entry = entry[combo[k]]
            hit = entry & own
            if hit:
                out |= hit
                for k, x in enumerate(combo):
                    support[k] |= 1 << x
    return (out, *support)


def _search_component(comp: CompiledMatrix, cl: Closure, dom: list[int], ids):
    """The first prevaluation in search order on the sub-closure ``ids``
    (ascending, closed under arguments) within the given domains.

    ``dom`` holds each node's value mask, at the arc-consistency fixpoint
    (``_propagate``) on the sub-closure; it is only read.  The ids are
    assigned in place, in ascending order, their own closure order.  Returns
    (assignment or None, explored-count), the assignment a list of value
    indices by node id.
    """
    n = len(ids)
    assignment = [0] * len(dom)
    if n == 0:
        return assignment, 0
    heads, args, tables = cl.heads, cl.args, comp.tables
    explored = 0

    def candidates(i: int):
        if heads[i] is None:
            return iter(mask_bits(dom[i]))
        entry = tables[heads[i]]
        for a in args[i]:
            entry = entry[assignment[a]]
        return iter(mask_bits(entry & dom[i]))

    # depth-first over the ids, one candidate iterator per assigned node
    stack = [candidates(ids[0])]
    while stack:
        k = len(stack) - 1
        v = next(stack[k], None)
        if v is None:
            stack.pop()
            continue
        assignment[ids[k]] = v
        explored += 1
        if k + 1 == n:
            return assignment, explored
        stack.append(candidates(ids[k + 1]))
    return None, explored


class PremiseContext:
    """The premises gamma over an indexed closure, answering one query at a
    time (see the module docstring).  Its fixpoints narrow gamma and the set
    ``common`` of conclusions; the other conclusions of a query are its own.
    A context made by ``with_premise`` grows each fixpoint from its parent's
    and shares its kept countermodel masks, of which it reads those that
    designate its premises (see the module docstring).
    """

    def __init__(
        self, m: PNMatrix, cl: Closure, gamma: Sequence[Formula], common=frozenset(), parent=None
    ):
        self.m, self.cl, self.common, self.gamma = m, cl, common, gamma
        self.premises = [cl.node[f] for f in gamma]
        self.shared = [cl.node[f] for f in common]
        self.parent = parent  # the context of gamma[:-1], or None
        # every query reaches the whole closure when the premises and common
        # hold every root; else the ids they reach, walked on the first search
        self.whole = common.union(gamma).issuperset(cl.roots)
        self.base: Optional[set[int]] = None
        self.fixpoints: list[Optional[list[int]]] = []  # per component reached: domains, or None
        # the designation masks of every countermodel extended by the root
        # context or one grown from it, shared by them all; the first _read
        # of them were read, and _covering holds those that designate gamma
        self._kept: list[int] = [] if parent is None else parent._kept
        self._read = 0
        self._covering: list[int] = []
        self._gamma = 0  # gamma's ids, as a mask
        for i in self.premises:
            self._gamma |= 1 << i

    def with_premise(self, b: Formula) -> PremiseContext:
        """The context of gamma plus b: each of its fixpoints is this one's
        with b narrowed to designated values, propagated from b alone."""
        return PremiseContext(self.m, self.cl, (*self.gamma, b), self.common, self)

    def decide(self, delta: Iterable[Formula]) -> Verdict:
        """Does ``gamma |- delta`` hold?  delta's formulas lie in the closure."""
        tried, solution, ids, explored = self._search(delta)
        if solution is None:
            return Verdict("yes", None, tried, explored)
        formulas, values = self.cl.formulas, self.m.values
        assignment = tuple([(formulas[g], values[solution[g]]) for g in ids])
        w_names = self.m.compiled.viability.maximal[tried - 1]
        return Verdict("no", Countermodel(assignment, w_names), tried, explored)

    def countermodel_mask(self, delta: Iterable[Formula]) -> Optional[int]:
        """The closure ids the first countermodel to ``gamma |- delta``
        designates once extended over the whole closure, as a mask (bit i
        for node i), which is kept; None when gamma entails delta."""
        tried, solution, ids, _ = self._search(delta)
        if solution is None:
            return None
        d = self._extend(solution, ids, self.m.compiled.components[tried - 1])
        self._kept.append(d)
        return d

    def entails(self, delta: Iterable[Formula]) -> bool:
        """Does ``gamma |- delta`` hold?  No without a search when a kept
        countermodel designates gamma and misses all of delta; otherwise one
        search answers, and the countermodel it finds is kept."""
        delta = tuple(delta)
        avoided = 0
        for f in delta:
            avoided |= 1 << self.cl.node[f]
        if any(not d & avoided for d in self._known()):
            return False
        return self.countermodel_mask(delta) is None

    def unentailed(self, candidates: Iterable[Formula], entailed: set[Formula]) -> list[Formula]:
        """The candidates outside ``entailed`` that gamma does not entail
        singly, in candidate order.  A candidate that a kept countermodel
        designating gamma leaves undesignated is refuted without a search;
        so is every later one that a countermodel found for a candidate,
        extended and kept, leaves undesignated (see the module docstring).
        """
        kept = -1  # ids every kept countermodel designating gamma designates
        for d in self._known():
            kept &= d
        node = self.cl.node
        out = []
        for a in candidates:
            if a in entailed:
                continue
            if kept >> node[a] & 1:
                d = self.countermodel_mask([a])
                if d is None:
                    continue
                kept &= d
            out.append(a)
        return out

    def _known(self) -> list[int]:
        """The kept masks that designate every premise of gamma, read from
        the shared list from where the last call stopped."""
        kept, gamma = self._kept, self._gamma
        if self._read < len(kept):
            self._covering += [d for d in kept[self._read:] if d & gamma == gamma]
            self._read = len(kept)
        return self._covering

    def _fixpoint(self, k: int) -> Optional[list[int]]:
        """The domains at the fixpoint in the k-th component (None if one
        empties), made on first need and after those of the components
        before it."""
        fixpoints = self.fixpoints
        if k == len(fixpoints):
            cl, comp = self.cl, self.m.compiled
            if self.parent is None:
                dom = [comp.components[k]] * len(cl.formulas)
                for i in self.premises:
                    dom[i] &= comp.designated
                for i in self.shared:
                    dom[i] &= ~comp.designated
                good = all(dom) and _propagate(cl, comp, dom)
            else:
                # the parent's fixpoint with b narrowed (see the module docstring)
                dom = self.parent._fixpoint(k)
                b = self.premises[-1]
                good = dom is not None and dom[b] & comp.designated
                if good:
                    dom = dom.copy()
                    dom[b] &= comp.designated
                    good = _propagate(cl, comp, dom, [b])
            fixpoints.append(dom if good else None)
        return fixpoints[k]

    def _search(self, delta: Iterable[Formula]):
        """The first countermodel to ``gamma |- delta`` in search order:
        (components tried, assignment by node id or None, the ids it
        covers in ascending order, nodes explored)."""
        cl = self.cl
        comp = self.m.compiled
        undesignated = ~comp.designated
        own = [cl.node[f] for f in delta if f not in self.common]
        ids = None
        explored = 0
        for tried in range(1, len(comp.components) + 1):
            dom = self._fixpoint(tried - 1)
            # an empty domain empties one in the query's own fixpoint as well
            if dom is None or not all(dom[c] & undesignated for c in own):
                continue
            if ids is None:  # the query's sub-closure, ascending and as a set
                inside = None
                if not self.whole:
                    if self.base is None:
                        self.base = cl.reach(self.premises + self.shared)
                    inside = cl.reach(own, self.base)
                ids = range(len(dom)) if inside is None else sorted(inside)
            if own:
                dom = dom.copy()
                for c in own:
                    dom[c] &= undesignated
                if not _propagate(cl, comp, dom, own, inside):
                    continue
            solution, k = _search_component(comp, cl, dom, ids)
            explored += k
            if solution is not None:
                return tried, solution, ids, explored
        return len(comp.components), None, ids, explored

    def _extend(self, solution: list[int], ids, w: int) -> int:
        """The mask of the ids designated once a countermodel on ``ids`` is
        extended, in ascending id order, over the whole closure within its
        component mask w: each node takes the lowest undesignated value it
        can (a value of w for a variable, of its table entry and w for a
        compound node), else the lowest value."""
        heads, args, tables = self.cl.heads, self.cl.args, self.m.compiled.tables
        designated = self.m.compiled.designated
        covered = set(ids)
        out = 0
        for i, v in enumerate(solution):
            if i not in covered:
                can = w if heads[i] is None else tables[heads[i]]
                for a in args[i]:
                    can = can[solution[a]]
                can &= w
                low = can & ~designated or can
                solution[i] = v = (low & -low).bit_length() - 1
            if designated >> v & 1:
                out |= 1 << i
        return out


def decide_multiple(m: PNMatrix, gamma: Iterable[Formula], delta: Iterable[Formula]) -> Verdict:
    """Does every valuation designating all of gamma designate some of delta?"""
    return decide_batch(m, gamma, [delta])[0]


def decide_single(m: PNMatrix, gamma: Iterable[Formula], a: Formula) -> Verdict:
    return decide_multiple(m, gamma, [a])


def decide_batch(
    m: PNMatrix, gamma: Iterable[Formula], deltas: Iterable[Iterable[Formula]]
) -> list[Verdict]:
    """``[decide_multiple(m, gamma, delta) for delta in deltas]``, from one
    ``PremiseContext`` over one closure (see the module docstring)."""
    gamma = tuple(gamma)
    deltas = [tuple(delta) for delta in deltas]
    if not deltas:
        return []
    cl = Closure([*gamma, *chain.from_iterable(deltas)], m.sig)
    context = PremiseContext(m, cl, gamma, set(deltas[0]).intersection(*deltas[1:]))
    return [context.decide(delta) for delta in deltas]


def possible_values(m: PNMatrix, a: Formula, x: str) -> frozenset[str]:
    """Exact set of values a one-variable formula can take when its variable
    is x; empty when x is spurious."""
    return _value_vector(m, a, [x])[m.values.index(x)]


def possible_value_vector(m: PNMatrix, a: Formula) -> tuple[frozenset[str], ...]:
    """For each value x of m in order, the exact set of values a one-variable
    formula can take when its variable is x; the set of a spurious x is empty."""
    return _value_vector(m, a, m.values)


def _value_vector(m: PNMatrix, a: Formula, asked: Sequence[str]) -> tuple[frozenset[str], ...]:
    """The sets of ``possible_value_vector`` at the asked values (the others
    empty), searched only once a and the asked values are known to be good.

    Per viable component w and asked x in w, the variable is fixed to x and
    first-solution searches on sub(a) are repeated, each with the values of
    a found so far dropped from its domain.  a is no node's argument, so a
    solution shows every value of w in a's entry on its arguments possible.
    A closed formula is searched once per component, and the values found
    go to every asked x in it.
    """
    cl = Closure([a], m.sig)
    variables = [i for i, g in enumerate(cl.formulas) if isinstance(g, Var)]
    if len(variables) > 1:
        raise ValueError("possible_values expects a formula with at most one variable")
    for x in asked:
        if x not in m.values:
            raise ValueError(f"unknown value {x!r}")
    comp, asked = m.compiled, [m.values.index(x) for x in asked]
    ids = range(len(cl.formulas))
    root, head, args = ids[-1], cl.heads[-1], cl.args[-1]
    out = [0] * len(m.values)
    for w in comp.components:
        xs = [x for x in asked if w >> x & 1]
        # a closed formula's values do not depend on x: one search loop for all
        for group in [[x] for x in xs] if variables or not xs else [xs]:
            dom = [w] * len(ids)
            for i in variables:
                dom[i] = 1 << group[0]
            found, narrowed = 0, None
            while dom[root] and _propagate(cl, comp, dom, narrowed):
                solution, _ = _search_component(comp, cl, dom, ids)
                if solution is None:
                    break
                entry = 1 << solution[root] if head is None else comp.tables[head]
                for g in args:
                    entry = entry[solution[g]]
                found |= w & entry
                dom[root] &= ~found
                narrowed = [root]
            for x in group:
                out[x] |= found
    return tuple(frozenset(m.values[i] for i in mask_bits(s)) for s in out)


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
        args = tuple([assignment.get(a) for a in f.args])
        if ill_formed_node([f], m.sig) is not None:
            violations.append(f"formula {print_formula(f)} not well-formed over the matrix signature")
        elif None in args:
            violations.append(f"argument of {print_formula(f)} missing from assignment")
        elif f.head is not None and v not in m.entry(f.head, args):
            violations.append(f"{print_formula(f)} -> {v} violates its table entry")
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
