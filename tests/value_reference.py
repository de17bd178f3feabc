"""Reference for ``possible_value_vector``: the enumeration of every
prevaluation on sub(a) within each viable component.

Per component, the domains are brought to their arc-consistency fixpoint
and a depth-first search walks every prevaluation, collecting the pairs
(value of the variable, value of a), or the values of a for a closed
formula, which it then takes under every value of the component.  The
library instead asks first-solution searches, dropping the values of a it
has found; the two vectors must be equal.

The enumeration can take minutes on a 16-value matrix, so it stops after
``budget`` assignments and then answers None.
"""

from operator import itemgetter

from pnmatrix import Var
from pnmatrix.engine import Closure, _propagate
from pnmatrix.matrix_core import mask_bits


def _enumerate(m, cl, dom, key, acc, budget):
    """Adds key(assignment) to acc for every prevaluation within dom; the
    number of assignments made, which stops just past budget.  Entries come
    from m's own tables, keyed by value names, as masks keyed by tuples of
    value indices."""
    n = len(dom)
    index = {v: i for i, v in enumerate(m.values)}
    tables = {
        c: {tuple(index[x] for x in tup): sum(1 << index[v] for v in out) for tup, out in t.items()}
        for c, t in m.tables.items()
    }
    heads, args = cl.heads, cl.args
    assignment = [0] * n

    def candidates(i):
        if heads[i] is None:
            return iter(mask_bits(dom[i]))
        entry = tables[heads[i]][tuple(assignment[a] for a in args[i])]
        return iter(mask_bits(entry & dom[i]))

    stack = [candidates(0)]
    explored = 0
    while stack and explored <= budget:
        k = len(stack) - 1
        v = next(stack[k], None)
        if v is None:
            stack.pop()
            continue
        assignment[k] = v
        explored += 1
        if k + 1 < n:
            stack.append(candidates(k + 1))
        else:
            acc.add(key(assignment))
    return explored


def reference_value_vector(m, a, budget=float("inf")):
    cl = Closure([a], m.sig)
    variables = [i for i, g in enumerate(cl.formulas) if isinstance(g, Var)]
    if len(variables) > 1:
        raise ValueError("possible_values expects a formula with at most one variable")
    comp = m.compiled
    out = [set() for _ in m.values]
    key = itemgetter(*variables, cl.node[a])
    for w in comp.components:
        dom = [w] * len(cl.formulas)
        acc = set()
        if _propagate(cl, comp, dom):
            budget -= _enumerate(m, cl, dom, key, acc, budget)
            if budget < 0:
                return None
        if variables:
            for x, v in acc:
                out[x].add(v)
        else:
            for x in mask_bits(w):
                out[x] |= acc
    return tuple(frozenset(m.values[i] for i in s) for s in out)
