"""End-to-end acceptance checks, one test per headline behavior."""

import pytest

from pnmatrix import (
    Signature,
    builtin,
    builtin_calculus,
    calculus_sound,
    check_countermodel,
    check_saturation_witness,
    decide_combined_ctx,
    decide_multiple,
    decide_single,
    extend,
    find_separator,
    monadicity_report,
    parse_formula,
    power,
    print_formula,
    prune,
    reduct,
    refute_saturation,
    rename_connectives,
    skeleton,
    split_advice,
    strict_product,
    MonolithMap,
    SeparatorBounds,
    apply_substitution,
    Substitution,
)

from corpus import random_formula, random_query, seeded
from oracle import oracle_decide


def sub_sig(m, names):
    return Signature.of({c: m.sig.arity(c) for c in names})


@pytest.fixture(scope="module")
def kl_product():
    return strict_product(builtin("kleene-imp"), builtin("luk-imp"))


def test_01_strict_product_table_identity(kl_product):
    p = kl_product
    assert p.values == ("0|0", "0|h", "h|0", "h|h", "1|1")
    assert p.designated == frozenset({"1|1"})
    cols = list(p.values)
    expected_rows = {
        "0|0": ["1|1", "1|1", "1|1", "1|1", "1|1"],
        "0|h": [None, "1|1", None, "1|1", "1|1"],
        "h|0": [None, None, None, None, "1|1"],
        "h|h": ["h|h", None, "h|h", None, "1|1"],
        "1|1": ["0|0", "0|h", "h|0", "h|h", "1|1"],
    }
    for a in cols:
        for b, cell in zip(cols, expected_rows[a]):
            want = frozenset() if cell is None else frozenset({cell})
            assert p.entry("imp", (a, b)) == want, (a, b)
    pruned = prune(p)
    assert pruned.values == ("0|0", "0|h", "1|1")
    assert pruned.entry("imp", ("0|h", "0|0")) == frozenset()


def test_02_pruned_product_collapses_to_classical_implication(kl_product):
    pruned = prune(kl_product)
    sig = pruned.sig
    p = parse_formula("p", sig)
    ipq = parse_formula("imp(p, q)", sig)
    assert decide_multiple(pruned, [], [p, ipq]).answer == "yes"
    classical = builtin_calculus("classical")
    imp_rules = [
        r
        for r in classical.rules
        if all(_conn_heads(f) <= {"imp"} for f in r.premises + r.conclusions)
    ]
    assert sorted(r.name for r in imp_rules) == ["imp-cases", "imp-intro", "modus-ponens"]
    for r in imp_rules:
        assert decide_multiple(pruned, r.premises, r.conclusions).answer == "yes", r.name


def _conn_heads(f):
    from pnmatrix import App, subformulas

    return {g.head for g in subformulas(f) if isinstance(g, App)}


def test_03_disjoint_combination_separates_the_two_implications():
    k = rename_connectives(builtin("kleene-imp"), {"imp": "impK"})
    l = rename_connectives(builtin("luk-imp"), {"imp": "impL"})
    p = strict_product(k, l)
    assert p.is_total()
    sig = p.sig
    a = parse_formula("impK(p, q)", sig)
    b = parse_formula("impL(p, q)", sig)
    v = decide_multiple(p, [a], [b])
    assert v.answer == "no"
    cm = v.countermodel.as_dict()
    assert cm[parse_formula("p", sig)] == "0|h"
    assert cm[parse_formula("q", sig)] == "0|0"


def test_04_negation_conjunction_product():
    m = strict_product(
        builtin("neg3"), reduct(builtin("bool2"), Signature.of({"and": 2}))
    )
    sig = m.sig
    pf = lambda s: parse_formula(s, sig)
    v = decide_single(m, [pf("neg(p)")], pf("neg(and(p, p))"))
    assert v.answer == "no"
    cm = v.countermodel.as_dict()
    assert cm[pf("p")] == "0|0"
    assert cm[pf("neg(p)")] == "1|1"
    assert cm[pf("and(p, p)")] == "h|0"
    assert cm[pf("neg(and(p, p))")] == "h|0"
    assert decide_single(m, [pf("neg(neg(p))")], pf("p")).answer == "yes"


def test_05_saturation_refuter_witnesses():
    b2 = builtin("bool2")
    b2_neg = reduct(b2, sub_sig(b2, ["neg"]))
    b2_or = reduct(b2, sub_sig(b2, ["or"]))
    k = builtin("kleene-imp")
    l = builtin("luk-imp")

    r = refute_saturation(b2_neg)
    assert r.refuted
    assert [print_formula(f) for f in r.witness.gamma0] == []
    assert [print_formula(f) for f in r.witness.phi] == ["p", "neg(p)"]
    assert check_saturation_witness(b2_neg, r.witness) == []

    r = refute_saturation(b2_or)
    assert r.refuted
    assert [print_formula(f) for f in r.witness.gamma0] == ["or(p, q)"]
    assert [print_formula(f) for f in r.witness.phi] == ["p", "q"]
    assert check_saturation_witness(b2_or, r.witness) == []

    r = refute_saturation(k)
    assert r.refuted
    assert [print_formula(f) for f in r.witness.gamma0] == ["imp(p, p)"]
    assert [print_formula(f) for f in r.witness.phi] == ["p", "imp(p, q)"]
    assert check_saturation_witness(k, r.witness) == []

    r = refute_saturation(l)
    assert r.refuted
    assert check_saturation_witness(l, r.witness) == []
    # the size-least witness is a pair; the classic three-formula witness is
    # also a valid one, checked directly
    sig = l.sig
    triple = [
        parse_formula(s, sig) for s in ("p", "imp(p, q)", "imp(q, r)")
    ]
    assert decide_multiple(l, [], triple).answer == "yes"
    for a in triple:
        assert decide_single(l, [], a).answer == "no"

    assert not refute_saturation(builtin("neg3")).refuted
    assert not refute_saturation(builtin("sources")).refuted


def test_06_monadicity():
    ks = builtin("kleene-ks")
    table = monadicity_report(ks)
    assert table.monadic
    assert {print_formula(f) for f in table.separators_used()} == {"p", "neg(p)"}

    s = builtin("sources")
    assert monadicity_report(s, sub_sig(s, ["neg"])).monadic

    luk = builtin("luk3")
    imp_only = reduct(luk, sub_sig(luk, ["imp"]))
    assert (
        find_separator(imp_only, "0", "h", bounds=SeparatorBounds(max_depth=4)) is None
    )


def test_07_split_advisor():
    ks = builtin("kleene-ks")
    sv = split_advice(ks, sub_sig(ks, ["and", "neg"]), sub_sig(ks, ["or", "neg"]))
    assert sv.verdict == "split-safe-multiple"
    assert sv.divergences == ()

    luk = builtin("luk3")
    sv = split_advice(luk, sub_sig(luk, ["neg", "imp"]), sub_sig(luk, ["nabla"]))
    assert sv.verdict == "unsafe-evidence"
    named = [
        d
        for d in sv.divergences
        if print_formula(d.premise) == "nabla(p)"
        and print_formula(d.conclusion) == "imp(neg(p), p)"
    ]
    assert named, [d.pretty() for d in sv.divergences]
    cm = named[0].product_verdict.countermodel.as_dict()
    assert cm[parse_formula("p", luk.sig)] == "0|h"

    s1, s2 = sub_sig(luk, ["neg", "imp"]), sub_sig(luk, ["nabla", "imp"])
    sv = split_advice(luk, s1, s2)
    # NOTE: sharing imp does not close the product: its restriction to the
    # viable component {0|h, 1|1} is total, so nabla(p) |/- imp(neg(p), p)
    # holds in the split (p = 0|h) while luk3 proves it.  Every divergence
    # must be a genuine one, confirmed by check_countermodel and the oracle.
    assert sv.verdict == "unsafe-evidence"
    named = [
        d
        for d in sv.divergences
        if print_formula(d.premise) == "nabla(p)"
        and print_formula(d.conclusion) == "imp(neg(p), p)"
    ]
    assert named, [d.pretty() for d in sv.divergences]
    cm = named[0].product_verdict.countermodel
    assert cm.as_dict()[parse_formula("p", luk.sig)] == "0|h"
    assert cm.component == frozenset({"0|h", "1|1"})
    product = strict_product(reduct(luk, s1), reduct(luk, s2))
    for d in sv.divergences:
        assert d.matrix_verdict.answer == "yes", d.pretty()
        assert d.product_verdict.answer == "no", d.pretty()
        query = ([d.premise], [d.conclusion])
        assert check_countermodel(product, *query, d.product_verdict.countermodel) == []
        assert oracle_decide(luk, *query) == "yes", d.pretty()
        assert oracle_decide(product, *query) == "no", d.pretty()


def test_08_builtin_calculi_are_sound():
    for cal_name, fixture in [
        ("classical", "bool2"),
        ("kleene-ks", "kleene-ks"),
        ("sources", "sources"),
    ]:
        report = calculus_sound(builtin(fixture), builtin_calculus(cal_name))
        assert report.all_sound, [r.name for r, v in report.failures()]


def test_09_context_decision_matches_product_route():
    b2 = builtin("bool2")
    pairs = [
        (builtin("neg3"), reduct(b2, sub_sig(b2, ["and"]))),
        (reduct(b2, sub_sig(b2, ["neg"])), reduct(b2, sub_sig(b2, ["or"]))),
        (
            rename_connectives(builtin("kleene-imp"), {"imp": "impK"}),
            rename_connectives(builtin("luk-imp"), {"imp": "impL"}),
        ),
    ]
    rng = seeded("ctx-vs-product")
    for m1, m2 in pairs:
        product = strict_product(m1, m2)
        assert product.is_total()
        union = m1.sig.union(m2.sig)
        for _ in range(200):
            gamma, delta = random_query(
                rng, union, depth=2, max_premises=2, max_conclusions=2, closure_cap=6
            )
            via_ctx = decide_combined_ctx(m1, m2, gamma, delta, mode="multiple")
            via_product = decide_multiple(product, gamma, delta)
            assert via_ctx.answer == via_product.answer, (gamma, delta)


def test_10_finite_power_surrogate():
    b2 = builtin("bool2")
    b2_and = reduct(b2, sub_sig(b2, ["and"]))
    b2_or = reduct(b2, sub_sig(b2, ["or"]))
    b2_neg = reduct(b2, sub_sig(b2, ["neg"]))
    p1 = strict_product(b2_and, power(b2_or, 2))
    q = decide_single(
        p1,
        [parse_formula("or(p, and(p, p))", p1.sig)],
        parse_formula("p", p1.sig),
    )
    assert q.answer == "no"

    powered = strict_product(power(b2_neg, 2), b2_and)
    reference = strict_product(builtin("neg3"), b2_and)
    rng = seeded("power-surrogate")
    union = powered.sig
    for _ in range(50):
        gamma, _ = random_query(rng, union, depth=2, max_premises=2, max_conclusions=0)
        a = random_formula(rng, union, ("p", "q", "r"), 2)
        left = decide_single(powered, gamma, a).answer
        right = decide_single(reference, gamma, a).answer
        assert left == right, (gamma, a)


def test_11_consequence_properties_and_extension_route():
    for name in ("bool2", "bool2n", "sources", "kleene-ks", "kleene-imp", "luk-imp", "luk3", "neg3"):
        m = builtin(name)
        rng = seeded(f"props:{name}")
        for i in range(500):
            gamma, delta = random_query(
                rng, m.sig, depth=2, max_premises=2, max_conclusions=2, closure_cap=9
            )
            kind = i % 3
            if kind == 0:  # overlap
                f = random_formula(rng, m.sig, ("p", "q", "r"), 2)
                assert decide_multiple(m, gamma + (f,), delta + (f,)).answer == "yes"
            elif kind == 1:  # dilution
                if rng.random() < 0.5 and delta:
                    gamma = gamma + (delta[0],)  # force a yes instance
                if decide_multiple(m, gamma, delta).answer == "yes":
                    extra = (random_formula(rng, m.sig, ("p", "q", "r"), 1),)
                    assert (
                        decide_multiple(m, gamma + extra, delta + extra).answer == "yes"
                    )
                    assert decide_multiple(m, gamma, delta + extra).answer == "yes"
            else:  # substitution invariance
                if rng.random() < 0.5 and delta:
                    gamma = gamma + (delta[0],)
                if decide_multiple(m, gamma, delta).answer == "yes":
                    sigma = Substitution.of(
                        {
                            v: random_formula(rng, m.sig, ("p", "q"), 1)
                            for v in ("p", "q", "r")
                        }
                    )
                    gs = tuple(apply_substitution(f, sigma) for f in gamma)
                    ds = tuple(apply_substitution(f, sigma) for f in delta)
                    assert decide_multiple(m, gs, ds).answer == "yes"

    # extension route vs skeleton route
    for name in ("bool2", "kleene-imp", "neg3"):
        m = builtin(name)
        big = m.sig.union(Signature.of({"f1": 1, "f2": 2}))
        ext = extend(m, big)
        rng = seeded(f"extend:{name}")
        for _ in range(200):
            gamma, delta = random_query(
                rng, big, depth=2, max_premises=2, max_conclusions=2, closure_cap=8
            )
            direct = decide_multiple(ext, gamma, delta).answer
            mm = MonolithMap()
            gs = tuple(skeleton(f, m.sig, mm)[0] for f in gamma)
            ds = tuple(skeleton(f, m.sig, mm)[0] for f in delta)
            translated = decide_multiple(m, gs, ds).answer
            assert direct == translated, (gamma, delta)


def test_12_engine_matches_brute_force_oracle():
    caps = {2: 9, 3: 7, 4: 6}
    for name in ("bool2", "bool2n", "sources", "kleene-ks", "kleene-imp", "luk-imp", "luk3", "neg3"):
        m = builtin(name)
        cap = caps[len(m.values)]
        rng = seeded(f"oracle:{name}")
        for _ in range(20):
            gamma, delta = random_query(
                rng, m.sig, depth=2, max_premises=3, max_conclusions=3, closure_cap=cap
            )
            assert (
                decide_multiple(m, gamma, delta).answer
                == oracle_decide(m, gamma, delta)
            ), (name, gamma, delta)
