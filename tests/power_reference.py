"""Reference for consequence over a finite power, decided from its base.

A valuation over ``power(m, k)`` is a k-tuple of valuations over m, and a
tuple is designated iff every coordinate is.  So ``gamma |- delta`` fails
over the power iff delta splits into k blocks (empty blocks allowed) such
that ``gamma |- B`` fails over m for every block B: coordinate i designates
all of gamma and none of block i, and every conclusion, lying in some block,
is missed by some coordinate.  A "no" pairs one countermodel per block,
coordinatewise, each first extended over the closure of the whole query.
"""

import itertools

from pnmatrix import decide_multiple, subformula_closure
from pnmatrix.engine import Countermodel


def _extended(m, cm, closure):
    """cm's assignment extended over closure, in subformula order, within
    its viable component w: a new node takes the first value of m, in m's
    order, that is in w and, for a compound node, in its table entry.
    There is one, as every entry over w meets w."""
    w = cm.component
    env = cm.as_dict()
    for f in closure:
        if f not in env:
            allowed = w if f.head is None else m.entry(f.head, tuple(env[a] for a in f.args)) & w
            env[f] = next(v for v in m.values if v in allowed)
    return env


def reference_decide_power(m, k, gamma, delta):
    """("yes", None) or ("no", a countermodel over ``power(m, k)``) for
    ``gamma |- delta``, from searches over m alone.  The splits of delta are
    tried in ``itertools.product`` order; the countermodel's component is
    the product of its blocks' components, a viable set of the power."""
    gamma, delta = tuple(gamma), tuple(dict.fromkeys(delta))
    closure = subformula_closure(gamma + delta)
    verdicts = {}
    for split in itertools.product(range(k), repeat=len(delta)):
        blocks = [tuple(f for f, i in zip(delta, split) if i == j) for j in range(k)]
        for block in blocks:
            if block not in verdicts:
                verdicts[block] = decide_multiple(m, gamma, block)
        if all(verdicts[block].answer == "no" for block in blocks):
            cms = [verdicts[block].countermodel for block in blocks]
            envs = [_extended(m, cm, closure) for cm in cms]
            assignment = tuple((f, "&".join(env[f] for env in envs)) for f in closure)
            component = frozenset(map("&".join, itertools.product(*(cm.component for cm in cms))))
            return "no", Countermodel(assignment, component)
    return "yes", None
