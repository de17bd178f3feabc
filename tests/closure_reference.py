"""Reference for ``engine.Closure``: the index built as it was before the
one-pass construction, a dict and one list pass per field, with the queue
and queued marks a full propagation started from then.

Every field of ``reference_closure(roots, sig)`` must equal the attribute of
the same name on ``Closure(roots, sig)``; ``compound`` and ``is_compound``
are what ``_propagate`` computed from ``heads`` on each full start.
"""

from types import SimpleNamespace

from pnmatrix.syntax import ill_formed_node, print_formula, subformula_closure


def reference_closure(roots, sig):
    self = SimpleNamespace()
    self.roots = roots
    self.formulas = formulas = subformula_closure(roots)
    bad = ill_formed_node(formulas, sig)  # each node once; the first bad one is named
    if bad is not None:
        raise ValueError(f"formula {print_formula(bad)} not well-formed over the matrix signature")
    self.node = node = {f: i for i, f in enumerate(formulas)}
    self.heads = heads = [f.head for f in formulas]
    self.args = args = [tuple([node[a] for a in f.args]) for f in formulas]
    self.distinct = distinct = [
        a if len(a) < 2 or len(set(a)) == len(a) else tuple(dict.fromkeys(a)) for a in args
    ]
    self.positions = positions = [
        None if d is a else tuple(d.index(x) for x in a) for a, d in zip(args, distinct)
    ]
    self.keys = [h if p is None else (h, p) for h, p in zip(heads, positions)]
    self.watch: list[list[int]] = [[] for _ in args]
    for i, d in enumerate(distinct):
        for a in d:
            self.watch[a].append(i)
    for i, h in enumerate(heads):
        if h is not None:
            self.watch[i].append(i)
    # the start of a full propagation
    self.compound = [i for i, h in enumerate(heads) if h is not None]
    self.is_compound = [h is not None for h in heads]
    return self
