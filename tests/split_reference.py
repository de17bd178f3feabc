"""Reference for ``split_advice``: the battery that asks both the matrix and
the product every sampled pair.

Each premise of the battery sends all its conclusions through
``decide_batch``, once over the matrix and once over the strict product of
the two reducts; nothing carries over between premises or between the two
sides.  The library asks the matrix only where the product refutes and
sweeps each side over one indexed pool; every field of the two results must
agree.
"""

from pnmatrix import (
    Divergence,
    SplitVerdict,
    decide_batch,
    formula_pool,
    formula_size,
    monadicity_report,
    print_formula,
    reduct,
    refute_saturation,
    strict_product,
)


def reference_battery(union, samples):
    """The battery's (premise, conclusion) pairs, in their order."""
    forms = formula_pool(union, ("p",), max_depth=2, cap=5000)
    return sorted(
        ((a, b) for a in forms for b in forms if a != b),
        key=lambda ab: (
            formula_size(ab[0]) + formula_size(ab[1]),
            print_formula(ab[0]),
            print_formula(ab[1]),
        ),
    )[:samples]


def reference_split_advice(m, sig1, sig2, samples=200):
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    union = sig1.union(sig2)
    if not union.is_subsignature_of(m.sig):
        raise ValueError("split signatures must cover a subsignature of the matrix")
    shared = sig1.intersection(sig2)
    product = strict_product(reduct(m, sig1), reduct(m, sig2))
    pairs = reference_battery(union, samples)
    conclusions = {}
    for a, b in pairs:
        conclusions.setdefault(a, []).append(b)
    verdicts = {}  # (premise, conclusion): (matrix verdict, product verdict)
    for a, bs in conclusions.items():
        queries = [[b] for b in bs]
        both = zip(decide_batch(m, [a], queries), decide_batch(product, [a], queries))
        verdicts.update(((a, b), vs) for b, vs in zip(bs, both))
    divergences = []
    for a, b in pairs:
        vm, vp = verdicts[a, b]
        if vm.answer != vp.answer:
            divergences.append(Divergence(a, b, vm, vp))
    separators = monadicity_report(m, shared)
    saturation = refute_saturation(m)
    if divergences:
        verdict = "unsafe-evidence"
    elif separators.monadic:
        verdict = "split-safe-multiple" if saturation.refuted else "split-safe-single-conditional"
    else:
        verdict = "inconclusive"
    return SplitVerdict(
        verdict=verdict,
        divergences=tuple(divergences),
        separators=separators,
        saturation=saturation,
        samples_run=len(pairs),
    )
