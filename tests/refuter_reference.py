"""Reference for ``refute_saturation``: the per-formula sweep that asks one
search for every pool formula outside each theory base.

Every base is swept afresh, with one ``decide([a])`` per pool formula a
outside it; nothing carries over from sub-bases and no countermodel refutes
more than its own query.  The library answers the same sweeps from what
sub-bases entail and from extended countermodels; every field of the two
results must agree.
"""

import itertools

from pnmatrix import (
    RefutationBounds,
    RefutationResult,
    SaturationWitness,
    formula_pool,
    formula_size,
    print_formula,
)
from pnmatrix.engine import Closure, PremiseContext


def reference_unentailed(context, pool, gamma0):
    """The pool formulas outside gamma0 that the context's premises do not
    entail singly, one search each."""
    return [a for a in pool if a not in gamma0 and context.decide([a]).answer == "no"]


def reference_refute_saturation(m, bounds=RefutationBounds()):
    variables = ("p", "q", "r", "s", "t")[: bounds.max_vars]
    pool = formula_pool(m.sig, variables, bounds.max_depth, cap=bounds.max_pool)
    bases = []
    for size in range(bounds.max_premises + 1):
        bases.extend(itertools.combinations(pool, size))
    bases.sort(
        key=lambda g: (
            sum(formula_size(f) for f in g),
            tuple(sorted(print_formula(f) for f in g)),
        )
    )
    cl = Closure(pool, m.sig)
    checked = 0
    for gamma0 in bases:
        checked += 1
        context = PremiseContext(m, cl, gamma0)
        n = reference_unentailed(context, pool, gamma0)
        if not n or context.decide(n).answer != "yes":
            continue
        for size in range(1, bounds.max_phi + 1):
            for phi in itertools.combinations(n, size):
                if context.decide(phi).answer == "yes":
                    return RefutationResult(
                        refuted=True,
                        witness=SaturationWitness(gamma0=gamma0, phi=phi),
                        bounds=bounds,
                        theories_checked=checked,
                    )
    return RefutationResult(refuted=False, witness=None, bounds=bounds, theories_checked=checked)
