"""Reference for the two formula rewrites: substitution and skeletons as
they were before compiled schemas and shared memos, one ``_rebuild`` walk
per formula with a memo of its own.

``reference_axiom_instances`` must equal ``combine.axiom_instances``, list
and errors alike; ``reference_skeleton`` with a map per session must give
the skeletons and monolith names that ``syntax.skeleton`` gives.
"""

import itertools

from pnmatrix.syntax import App, Substitution, Var, variables


def reference_rebuild(f, leaf, keep=None):
    """f with each maximal subformula g that is a variable, or whose head
    fails keep(g), replaced by leaf(g).  Post-order without recursion, so
    leaf sees the replaced subformulas left to right."""
    out = {}
    stack = [f]
    while stack:
        g = stack[-1]
        kept = g.head is not None and (keep is None or keep(g))
        todo = [a for a in g.args if a not in out] if kept else ()
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        if g not in out:
            out[g] = App(g.head, tuple(out[a] for a in g.args)) if kept else leaf(g)
    return out[f]


def reference_apply_substitution(f, s):
    return reference_rebuild(f, lambda g: s(g.name))


def reference_axiom_instances(axioms, universe, cap):
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    universe = list(dict.fromkeys(universe))
    out = []
    seen = set()
    for ax in axioms:
        vs = sorted(variables(ax))
        if len(universe) ** len(vs) > cap:
            raise ValueError(f"more than {cap} axiom instances")
        for targets in itertools.product(universe, repeat=len(vs)):
            inst = reference_apply_substitution(ax, Substitution.of(dict(zip(vs, targets))))
            if inst not in seen:
                seen.add(inst)
                out.append(inst)
                if len(out) > cap:
                    raise ValueError(f"more than {cap} axiom instances")
    return out


def reference_skeleton(f, sub_sig, mm):
    """``syntax.skeleton`` with a walk of its own; mm is a ``MonolithMap``,
    of which only the name bijection is used."""
    def leaf(g):
        name = f"v_{g.name}" if g.head is None else mm.fresh_for(g, sub_sig)
        while name in sub_sig:
            name = f"v_{name}"
        return Var(name)

    return reference_rebuild(f, leaf, lambda g: g.head in sub_sig)
