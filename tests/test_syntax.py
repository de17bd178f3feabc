import gc
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from pnmatrix import (
    App,
    MonolithMap,
    ParseError,
    Signature,
    Substitution,
    Var,
    apply_substitution,
    compose,
    formula_key,
    formula_size,
    match_instance,
    parse_formula,
    parse_formula_list,
    print_formula,
    skeleton,
    subformula_closure,
    subformulas,
    unskeleton,
    variables,
    well_formed,
)

SIG = Signature.of({"top": 0, "neg": 1, "and": 2, "imp": 2})


def formulas(max_depth=3):
    leaf = st.one_of(
        st.sampled_from([Var("p"), Var("q"), Var("r")]),
        st.just(App("top", ())),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a: App("neg", (a,)), children),
            st.builds(lambda a, b: App("and", (a, b)), children, children),
            st.builds(lambda a, b: App("imp", (a, b)), children, children),
        )

    return st.recursive(leaf, extend, max_leaves=8)


class TestSignature:
    def test_union_and_intersection(self):
        other = Signature.of({"neg": 1, "or": 2})
        assert set(SIG.union(other).names()) == {"top", "neg", "and", "imp", "or"}
        assert SIG.intersection(other).names() == ("neg",)
        assert other.difference(SIG).names() == ("or",)

    def test_arity_clash_is_an_error(self):
        with pytest.raises(ValueError):
            SIG.union(Signature.of({"neg": 2}))

    def test_subsignature(self):
        assert Signature.of({"neg": 1}).is_subsignature_of(SIG)
        assert not Signature.of({"neg": 2}).is_subsignature_of(SIG)

    def test_lookups_leave_identity_alone(self):
        fresh = Signature.of({"top": 0, "neg": 1, "and": 2, "imp": 2})
        cold = pickle.dumps(fresh)
        assert "and" in fresh and "or" not in fresh
        assert fresh.arity("imp") == 2
        with pytest.raises(KeyError):
            fresh.arity("or")
        assert fresh == SIG and hash(fresh) == hash(SIG)
        assert pickle.dumps(fresh) == cold
        assert pickle.loads(cold) == fresh


class TestParsing:
    def test_basic(self):
        f = parse_formula("imp(neg(p), top)", SIG)
        assert f == App("imp", (App("neg", (Var("p"),)), App("top", ())))

    def test_bare_nullary_connective(self):
        assert parse_formula("top", SIG) == App("top", ())

    def test_undeclared_identifier_is_a_variable(self):
        assert parse_formula("banana", SIG) == Var("banana")

    def test_arity_error_carries_offset(self):
        with pytest.raises(ParseError) as e:
            parse_formula("and(p)", SIG)
        assert e.value.offset == 0

    def test_list_parsing(self):
        assert parse_formula_list("-", SIG) == ()
        assert parse_formula_list("", SIG) == ()
        fs = parse_formula_list("p, and(p, q), top", SIG)
        assert len(fs) == 3 and fs[2] == App("top", ())

    @given(formulas())
    def test_print_parse_round_trip(self, f):
        assert parse_formula(print_formula(f), SIG) == f


class TestSubformulas:
    def test_closure_is_sorted_and_closed(self):
        f = parse_formula("imp(and(p, q), neg(p))", SIG)
        omega = subformula_closure([f])
        assert omega == sorted(omega, key=formula_key)
        for g in omega:
            assert subformulas(g) <= set(omega)

    @given(st.lists(formulas(), max_size=4))
    def test_closure_order_is_formula_key_order(self, fs):
        assert subformula_closure(fs) == sorted(
            frozenset().union(*map(subformulas, fs)), key=formula_key
        )

    def test_size_of_a_deep_chain(self):
        f = Var("p")
        for _ in range(5000):
            f = App("neg", (f,))
        assert formula_size(f) == 5001
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None  # nothing kept the formula after measuring it

    def test_variables(self):
        f = parse_formula("imp(and(p, q), neg(p))", SIG)
        assert variables(f) == {"p", "q"}

    def test_well_formed(self):
        assert well_formed(parse_formula("neg(p)", SIG), SIG)
        assert not well_formed(App("neg", ()), SIG)
        assert not well_formed(Var("neg"), SIG)


class TestSubstitution:
    @given(formulas(), formulas())
    def test_composition_agrees_with_sequential_application(self, f, g):
        sigma = Substitution.of({"p": g, "q": Var("p")})
        tau = Substitution.of({"p": Var("q"), "r": g})
        assert apply_substitution(f, compose(tau, sigma)) == apply_substitution(
            apply_substitution(f, sigma), tau
        )

    @given(formulas())
    def test_matching_recovers_the_instance(self, f):
        schema = parse_formula("imp(p, q)", SIG)
        candidate = App("imp", (f, App("neg", (f,))))
        s = match_instance(candidate, schema)
        assert s is not None
        assert apply_substitution(schema, s) == candidate

    def test_matching_rejects_mismatch(self):
        assert match_instance(Var("p"), parse_formula("neg(p)", SIG)) is None
        # non-linear schema: both occurrences must agree
        schema = parse_formula("and(p, p)", SIG)
        assert match_instance(parse_formula("and(p, q)", SIG), schema) is None


class TestSkeleton:
    def test_monoliths_share_fresh_variables(self):
        sub = Signature.of({"neg": 1})
        mm = MonolithMap()
        f = parse_formula("and(neg(p), neg(and(p, q)))", SIG)
        s, _ = skeleton(f, sub, mm)
        # the and-head is foreign, so the whole formula is one monolith
        assert s == Var("m1")
        g = parse_formula("neg(and(p, q))", SIG)
        sg, _ = skeleton(g, sub, mm)
        assert sg == App("neg", (Var("m2"),))
        # same monolith again: same variable
        assert skeleton(g, sub, mm)[0] == sg

    @given(formulas())
    def test_round_trip(self, f):
        sub = Signature.of({"imp": 2, "neg": 1})
        mm = MonolithMap()
        s, _ = skeleton(f, sub, mm)
        assert unskeleton(s, mm) == f

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError):
            unskeleton(Var("m7"), MonolithMap())
