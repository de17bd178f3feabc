"""Deterministic pseudo-random formula/query corpus for cross-checks."""

import itertools
import random

from pnmatrix import App, Var, make_matrix, subformula_closure


def random_formula(rng, sig, variables, depth):
    conns = list(sig)
    positive = [(n, k) for n, k in conns if k > 0]
    leaves = [("var", v) for v in variables] + [("conn", n) for n, k in conns if k == 0]
    if depth == 0 or not positive or rng.random() < 0.3:
        kind, x = rng.choice(leaves)
        return Var(x) if kind == "var" else App(x, ())
    n, k = rng.choice(positive)
    return App(n, tuple(random_formula(rng, sig, variables, depth - 1) for _ in range(k)))


def random_query(
    rng,
    sig,
    variables=("p", "q", "r"),
    depth=2,
    max_premises=3,
    max_conclusions=3,
    closure_cap=None,
):
    while True:
        gamma = tuple(
            random_formula(rng, sig, variables, depth)
            for _ in range(rng.randint(0, max_premises))
        )
        delta = tuple(
            random_formula(rng, sig, variables, depth)
            for _ in range(rng.randint(0, max_conclusions))
        )
        if closure_cap is None or len(subformula_closure(gamma + delta)) <= closure_cap:
            return gamma, delta


def seeded(name: str) -> random.Random:
    return random.Random(f"corpus:{name}")


def total_nmatrices(name, sig, values, count):
    """``count`` seeded total Nmatrices over sig and values.  Each cell, and
    then the designated set, holds each value with chance 1/2, or one value
    drawn at random when that leaves it empty; entries with several values
    make mixed possible-value sets common."""
    rng = seeded(name)

    def cell():
        return {v for v in values if rng.random() < 0.5} or {rng.choice(values)}

    for _ in range(count):
        tables = {c: {t: cell() for t in itertools.product(values, repeat=k)} for c, k in sig}
        yield make_matrix(sig, values, cell(), tables)
