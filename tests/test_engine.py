import copy
import gc
import pickle
import weakref

import pytest

from pnmatrix import (
    Signature,
    Var,
    builtin,
    check_countermodel,
    decide_multiple,
    decide_single,
    parse_formula,
    parse_formula_list,
    possible_values,
    reduct,
    strict_product,
    viable_components,
)

from corpus import random_query, seeded
from oracle import oracle_decide


def pf(m, s):
    return parse_formula(s, m.sig)


class TestDecide:
    def test_excluded_middle_multiple(self):
        m = builtin("bool2")
        assert decide_multiple(m, [], parse_formula_list("p, neg(p)", m.sig)).answer == "yes"

    def test_sources_never_entail_empty(self):
        s = builtin("sources")
        assert decide_multiple(s, [pf(s, "p")], []).answer == "no"

    def test_ks_or_elimination(self):
        ks = builtin("kleene-ks")
        v = decide_multiple(
            ks, [pf(ks, "or(p, q)")], parse_formula_list("p, q", ks.sig)
        )
        assert v.answer == "yes"

    def test_sources_iterated_disjunction_chain(self):
        s = builtin("sources")
        a0 = pf(s, "p")
        a1 = pf(s, "or(p, p)")
        a2 = pf(s, "or(p, or(p, p))")
        assert decide_single(s, [a2], a0).answer == "no"
        assert decide_single(s, [a1], a0).answer == "no"
        assert decide_single(s, [a0], a1).answer == "yes"

    def test_ill_formed_query_rejected(self):
        m = builtin("neg3")
        with pytest.raises(ValueError):
            decide_multiple(m, [pf(builtin("bool2"), "and(p, q)")], [])

    def test_verdict_truthiness(self):
        m = builtin("bool2")
        assert decide_multiple(m, [pf(m, "p")], [pf(m, "p")])
        assert not decide_multiple(m, [], [pf(m, "p")])


class TestCountermodels:
    def test_countermodel_is_checkable(self):
        ks = builtin("kleene-ks")
        gamma = parse_formula_list("p, neg(p)", ks.sig)
        delta = parse_formula_list("q", ks.sig)
        v = decide_multiple(ks, gamma, delta)
        assert v.answer == "no"
        assert check_countermodel(ks, gamma, delta, v.countermodel) == []

    def test_countermodel_component_is_respected(self):
        ks = builtin("kleene-ks")
        gamma = parse_formula_list("p, neg(p)", ks.sig)
        v = decide_multiple(ks, gamma, [pf(ks, "q")])
        # p, neg(p) both designated forces the b-component
        assert v.countermodel.as_dict()[pf(ks, "p")] == "b"

    def test_tampered_countermodel_is_rejected(self):
        m = builtin("bool2")
        gamma, delta = (pf(m, "p"),), (pf(m, "q"),)
        v = decide_multiple(m, gamma, delta)
        cm = v.countermodel
        bad = type(cm)(
            assignment=tuple((f, "1") for f, _ in cm.assignment),
            component=cm.component,
        )
        assert check_countermodel(m, gamma, delta, bad)

    def test_determinism(self):
        ks = builtin("kleene-ks")
        gamma = parse_formula_list("or(p, q)", ks.sig)
        delta = parse_formula_list("and(p, q)", ks.sig)
        first = decide_multiple(ks, gamma, delta).countermodel
        again = decide_multiple(ks, tuple(gamma), tuple(delta)).countermodel
        assert first == again


    def test_large_closure_does_not_recurse(self):
        m = builtin("bool2")
        gamma = [Var(f"p{i}") for i in range(1200)]
        delta = [Var("q")]
        v = decide_multiple(m, gamma, delta)
        assert v.answer == "no"
        assert check_countermodel(m, gamma, delta, v.countermodel) == []


class TestDerivedState:
    """A matrix's viability report and compiled form live on the matrix."""

    def test_matrix_is_freed_after_use(self):
        m = strict_product(builtin("bool2"), builtin("bool2"))
        gamma, delta = [pf(m, "p")], [pf(m, "q")]
        v = decide_multiple(m, gamma, delta)
        possible_values(m, pf(m, "neg(p)"), m.values[0])
        viable_components(m)
        assert check_countermodel(m, gamma, delta, v.countermodel) == []
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None

    def test_copies_start_cold(self):
        m = strict_product(builtin("kleene-ks"), builtin("kleene-ks"))
        gamma = parse_formula_list("p, neg(p)", m.sig)
        delta = parse_formula_list("q", m.sig)
        warm = decide_multiple(m, gamma, delta)
        fields = {"sig", "values", "designated", "tables", "meta"}
        assert set(vars(m)) > fields
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert set(vars(twin)) == fields
            assert twin == m
            v = decide_multiple(twin, gamma, delta)
            assert v.answer == warm.answer == "no"
            assert v.countermodel == warm.countermodel


class TestPossibleValues:
    def test_ks_negation_fixes_b(self):
        assert possible_values(builtin("kleene-ks"), parse_formula("neg(p)", builtin("kleene-ks").sig), "b") == {"b"}

    def test_free_nullary_connective(self):
        m = builtin("bool2n")
        assert possible_values(m, parse_formula("botop", m.sig), "0") == {"0", "1"}

    def test_definable_possibility_operator(self):
        l = builtin("luk-imp")
        f = parse_formula("imp(neg(p), p)", builtin("luk3").sig)
        # over the implication-only matrix the inner neg(p) is not expressible;
        # use the full three-valued matrix instead
        luk = builtin("luk3")
        assert possible_values(luk, f, "h") == {"1"}
        assert possible_values(luk, f, "0") == {"0"}

    def test_spurious_value_yields_empty_set(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        assert possible_values(p, parse_formula("p", p.sig), "h|0") == frozenset()


class TestOracleAgreement:
    def test_random_queries_against_brute_force(self):
        for name in ("bool2n", "kleene-ks", "luk3"):
            m = builtin(name)
            rng = seeded(f"engine-oracle:{name}")
            for _ in range(15):
                gamma, delta = random_query(rng, m.sig, closure_cap=6)
                assert (
                    decide_multiple(m, gamma, delta).answer
                    == oracle_decide(m, gamma, delta)
                ), (name, gamma, delta)

    def test_partial_product_against_brute_force(self):
        luk = builtin("luk3")
        sig1 = Signature.of({"neg": 1, "imp": 2})
        sig2 = Signature.of({"nabla": 1, "imp": 2})
        p = strict_product(reduct(luk, sig1), reduct(luk, sig2))
        rng = seeded("engine-oracle:partial-product")
        for _ in range(10):
            gamma, delta = random_query(rng, p.sig, closure_cap=5)
            assert (
                decide_multiple(p, gamma, delta).answer
                == oracle_decide(p, gamma, delta)
            ), (gamma, delta)
