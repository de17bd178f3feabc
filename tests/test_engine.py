import collections
import copy
import gc
import itertools
import pickle
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pnmatrix import (
    App,
    Countermodel,
    Signature,
    Var,
    builtin,
    check_countermodel,
    decide_batch,
    decide_multiple,
    decide_single,
    fixture_names,
    formula_pool,
    make_matrix,
    parse_formula,
    parse_formula_list,
    possible_value_vector,
    possible_values,
    power,
    reduct,
    strict_product,
    subformula_closure,
    viable_components,
)
from pnmatrix import engine
from pnmatrix.engine import Closure, PremiseContext
from pnmatrix.matrix_core import mask_bits

from closure_reference import reference_closure
from corpus import random_formula, random_query, seeded, total_nmatrices
from oracle import brute_viable_sets, oracle_decide
from power_reference import reference_decide_power
from value_reference import reference_value_vector


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

    def test_repeated_formula_is_rejected(self):
        m = builtin("bool2")
        p = pf(m, "p")
        # as_dict keeps the last entry, so the first, which designates the
        # conclusion, would go unchecked
        cm = Countermodel(assignment=((p, "1"), (p, "0")), component=frozenset(m.values))
        assert check_countermodel(m, [], [p], cm) == ["p is assigned 2 times"]

    def test_only_repeated_formulas_are_reported(self):
        """Beside a formula assigned twice, one assigned once is not named."""
        m = builtin("bool2")
        p, q = pf(m, "p"), pf(m, "q")
        cm = Countermodel(assignment=((p, "0"), (q, "0"), (p, "0")), component=frozenset(m.values))
        assert check_countermodel(m, [], [p, q], cm) == ["p is assigned 2 times"]

    def test_ill_formed_node_is_named(self):
        """A node whose connective the matrix lacks, or has at another arity,
        is reported as not well formed, not as an argument missing."""
        m = builtin("bool2")
        p = Var("p")
        for f, text in ((App("foo", (p,)), "foo(p)"), (App("neg", (p, p)), "neg(p, p)")):
            cm = Countermodel(assignment=((p, "0"), (f, "0")), component=frozenset(m.values))
            assert check_countermodel(m, [], [f], cm) == [
                f"formula {text} not well-formed over the matrix signature"
            ]

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

    def test_deep_formula_decides(self):
        m = builtin("bool2")
        delta = [parse_formula("neg(" * 1200 + "p" + ")" * 1200, m.sig)]
        v = decide_multiple(m, [], delta)
        assert v.answer == "no" and len(v.countermodel.assignment) == 1201
        assert check_countermodel(m, [], delta, v.countermodel) == []


class TestCountermodelCheck:
    """Each rejection of ``check_countermodel``, with its message: the
    query, the matrix and the assignment, written as text."""

    @pytest.mark.parametrize("name, gamma, delta, assignment, violations", [
        ("bool2", "-", "p, q", {"p": "0"},
         ["assignment domain is not the subformula closure of the query"]),
        ("bool2", "-", "p", {"p": "2"}, ["unknown values ['2'] in assignment"]),
        ("bool2", "-", "neg(p)", {"neg(p)": "0"},
         ["assignment domain is not the subformula closure of the query",
          "argument of neg(p) missing from assignment"]),
        ("bool2", "-", "neg(p)", {"p": "0", "neg(p)": "0"},
         ["neg(p) -> 0 violates its table entry"]),
        ("kleene-ks", "q", "p", {"p": "a", "q": "b"},
         ["image of the assignment lies in no viable component"]),
        ("bool2", "p", "-", {"p": "0"}, ["premise p not designated"]),
        ("bool2", "-", "p", {"p": "1"}, ["conclusion p designated"]),
    ], ids=["domain", "unknown-value", "missing-argument", "entry", "component",
            "premise", "conclusion"])
    def test_rejections(self, name, gamma, delta, assignment, violations):
        m = builtin(name)
        cm = Countermodel(
            tuple((pf(m, f), v) for f, v in assignment.items()), frozenset(m.values)
        )
        gamma, delta = parse_formula_list(gamma, m.sig), parse_formula_list(delta, m.sig)
        assert check_countermodel(m, gamma, delta, cm) == violations

    def test_a_variable_named_like_a_connective_is_ill_formed(self):
        m = builtin("bool2")
        cm = Countermodel(((Var("neg"), "0"),), frozenset(m.values))
        assert check_countermodel(m, [], [Var("neg")], cm) == [
            "formula neg not well-formed over the matrix signature"
        ]


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
        assert m.compiled.revisions
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert set(vars(twin)) == fields
            assert twin == m
            assert twin.compiled.revisions == {}
            v = decide_multiple(twin, gamma, delta)
            assert v.answer == warm.answer == "no"
            assert v.countermodel == warm.countermodel


class TestBatch:
    """decide_batch against one decide_multiple per query, counts included."""

    @pytest.mark.parametrize("name", ["sources", "kleene-ks"])
    def test_refuter_bases(self, name):
        m = builtin(name)
        pool = formula_pool(m.sig, ("p", "q", "r"), 2, 24)
        bases = [g for size in range(3) for g in itertools.combinations(pool, size)]
        for gamma in bases[::13]:
            deltas = [[a] for a in pool] + [pool[i : i + 3] for i in range(0, 24, 3)] + [[]]
            assert decide_batch(m, gamma, deltas) == [
                decide_multiple(m, gamma, delta) for delta in deltas
            ], gamma

    @pytest.mark.parametrize("name", ["sources", "kleene-ks"])
    def test_refuter_context(self, name):
        # one closure over the pool, one context per base, as the refuter asks
        m = builtin(name)
        pool = formula_pool(m.sig, ("p", "q", "r"), 2, 24)
        cl = Closure(pool, m.sig)
        bases = [g for size in range(3) for g in itertools.combinations(pool, size)]
        smaller = 0
        for gamma in bases[::13]:
            context = PremiseContext(m, cl, gamma)
            targets = [a for a in pool if a not in gamma]
            n = [a for a in targets if context.decide([a]).answer == "no"]
            phis = [list(phi) for k in (1, 2, 3) for phi in itertools.combinations(n, k)]
            deltas = [[a] for a in targets] + [n] + phis[:: max(1, len(phis) // 40)] + [[]]
            for delta in deltas:
                assert context.decide(delta) == decide_multiple(m, gamma, delta), (gamma, delta)
                smaller += len(subformula_closure([*gamma, *delta])) < len(cl.formulas)
        assert smaller > 0

    @pytest.mark.parametrize("name", ["sources", "kleene-ks", "luk3-split"])
    def test_shared_conclusions(self, name):
        # a conclusion every query shares is narrowed in the shared fixpoint
        m = luk3_split() if name == "luk3-split" else builtin(name)
        pool = formula_pool(m.sig, ("p", "q"), 2, 39)
        for gamma in [[]] + [[f] for f in pool[::3]]:
            for a, b, c in zip(pool, pool[13:], pool[26:]):
                for deltas in ([[a, b], [a, c], [a]], [[a, b]] * 3):
                    verdicts = decide_batch(m, gamma, deltas)
                    assert verdicts == [decide_batch(m, gamma, [d])[0] for d in deltas]
                    for delta, v in zip(deltas, verdicts):
                        if v.answer == "no":
                            assert check_countermodel(m, gamma, delta, v.countermodel) == []

    def test_empty_batch_and_ill_formed_query(self):
        m = builtin("bool2")
        assert decide_batch(m, [pf(m, "p")], []) == []
        with pytest.raises(ValueError):
            decide_batch(m, [pf(m, "p")], [[pf(m, "q")], [pf(builtin("luk3"), "nabla(q)")]])

    def test_formulas_above_the_text_size(self):
        # formulas of one size above 64 nodes are ordered by their printed text
        m = builtin("bool2")
        deep = {v: parse_formula("neg(" * 69 + v + ")" * 69, m.sig) for v in "pqr"}
        gamma = [deep["q"]]
        deltas = [[deep["r"]], [deep["p"], Var("q")], [deep["q"]], []]
        assert decide_batch(m, gamma, deltas) == [
            decide_multiple(m, gamma, delta) for delta in deltas
        ]

    def test_split_product(self):
        m = luk3_split()
        gamma = parse_formula_list("nabla(p)", m.sig)
        deltas = [parse_formula_list(t, m.sig) for t in ("imp(neg(p), p)", "p", "-", "nabla(p)")]
        verdicts = decide_batch(m, gamma, deltas)
        # the first query stays open into the second component
        assert [(v.answer, v.components_tried) for v in verdicts] == [
            ("no", 2), ("no", 1), ("no", 1), ("yes", 2)
        ]
        assert verdicts == [decide_multiple(m, gamma, delta) for delta in deltas]


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

    def test_errors_in_order(self):
        m = builtin("kleene-ks")
        with pytest.raises(ValueError, match="at most one variable"):
            possible_values(m, pf(m, "or(p, q)"), "nonesuch")
        with pytest.raises(ValueError, match="unknown value 'nonesuch'"):
            possible_values(m, pf(m, "neg(p)"), "nonesuch")

    def test_unknown_value_is_rejected_before_the_search(self, monkeypatch):
        m = builtin("kleene-ks")
        monkeypatch.setattr(engine, "_search_component", None)  # a search would fail
        with pytest.raises(ValueError, match="unknown value 'nonesuch'"):
            possible_values(m, pf(m, "neg(p)"), "nonesuch")

    def test_vector_on_a_product(self):
        p = strict_product(builtin("kleene-ks"), builtin("kleene-ks"))
        for text in ("p", "neg(p)", "or(p, neg(p))", "and(neg(p), p)"):
            a = parse_formula(text, p.sig)
            assert possible_value_vector(p, a) == tuple(possible_values(p, a, x) for x in p.values)

    def test_vector_of_a_closed_formula(self):
        m = builtin("bool2n")
        a = parse_formula("botop", m.sig)
        assert possible_value_vector(m, a) == (frozenset({"0", "1"}),) * 2

    def test_arc_consistent_values_that_no_prevaluation_takes(self, monkeypatch):
        # with p = 0, the first solution has every node 0 and shows the whole
        # entry imp(0, 0) = {0, 2}.  neg(p) is 0 or 1 and neg(neg(p)) is 0,
        # 1 or 2, so arcs still support imp(neg(p), neg(neg(p))) = 1 through
        # the pair (0, 2); but neg(neg(p)) = 2 needs neg(p) = 1, so the
        # search asked for 1 finds nothing, and the loop stops there
        sig = Signature.of({"neg": 1, "imp": 2})
        imp = {
            ("0", "0"): {"0", "2"}, ("0", "1"): {"0"}, ("0", "2"): {"1"},
            ("1", "0"): {"0"}, ("1", "1"): {"1"}, ("1", "2"): {"2"},
            ("2", "0"): {"0"}, ("2", "1"): {"2"}, ("2", "2"): {"2"},
        }
        neg = {("0",): {"0", "1"}, ("1",): {"2"}, ("2",): {"2"}}
        m = make_matrix(sig, ["0", "1", "2"], ["1"], {"neg": neg, "imp": imp})
        a = parse_formula("imp(neg(p), neg(neg(p)))", sig)
        found = []
        search = engine._search_component

        def recorded(*args):
            solution, explored = search(*args)
            found.append(solution is not None)
            return solution, explored

        monkeypatch.setattr(engine, "_search_component", recorded)
        assert possible_values(m, a, "0") == {"0", "2"} == brute_possible_values(m, a, "0")
        assert found == [True, False]
        assert possible_value_vector(m, a) == ({"0", "2"}, {"2"}, {"2"})


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


# ---------------------------------------------------------------------------
# search order
# ---------------------------------------------------------------------------

def luk3_split():
    luk = builtin("luk3")
    return strict_product(
        reduct(luk, Signature.of({"neg": 1, "imp": 2})),
        reduct(luk, Signature.of({"nabla": 1, "imp": 2})),
    )


#: (matrix, premises, conclusions, answer, assignments_explored,
#:  components_tried, (first countermodel, its component) or None).
#: Recorded at commit 52a0319, while the search still ran over formula-keyed
#: dicts and sorted value tuples; the integer closure and the bitmask domains
#: must reproduce them exactly.
SEARCH_ORDER = [
    ('sources', 'p', 'or(p, q)', 'yes', 0, 1, None),
    ('sources', 'or(p, q)', 'p, q', 'no', 3, 1,
     ('p -> f, q -> f, or(p, q) -> b', 'b, f, n, t')),
    ('sources', 'and(p, q)', 'p', 'yes', 0, 1, None),
    ('sources', 'p', 'and(p, p)', 'yes', 0, 1, None),
    ('sources', 'or(p, p)', 'p', 'no', 2, 1,
     ('p -> f, or(p, p) -> b', 'b, f, n, t')),
    ('sources', 'p, neg(p)', 'q', 'no', 3, 1,
     ('p -> b, q -> f, neg(p) -> b', 'b, f, n, t')),
    ('sources', 'neg(and(p, q))', 'or(neg(p), neg(q))', 'no', 7, 1,
     ('p -> n, q -> n, neg(p) -> n, neg(q) -> n, and(p, q) -> f, neg(and(p, q)) -> t, or(neg(p), neg(q)) -> n', 'b, f, n, t')),
    ('sources', 'or(p, and(q, r)), neg(q)', 'p, r', 'no', 6, 1,
     ('p -> f, q -> f, r -> f, neg(q) -> t, and(q, r) -> f, or(p, and(q, r)) -> b', 'b, f, n, t')),
    ('sources', 'or(and(p, neg(q)), and(q, neg(p)))', 'neg(or(p, q))', 'no', 12, 1,
     ('p -> f, q -> n, neg(p) -> t, neg(q) -> n, or(p, q) -> n, and(p, neg(q)) -> f, and(q, neg(p)) -> f, neg(or(p, q)) -> n, or(and(p, neg(q)), and(q, neg(p))) -> b', 'b, f, n, t')),
    ('sources', 'p', 'and(r, neg(q)), and(and(neg(r), p), and(p, p))', 'no', 9, 1,
     ('p -> b, q -> f, r -> n, neg(q) -> t, neg(r) -> n, and(p, p) -> b, and(neg(r), p) -> f, and(r, neg(q)) -> f, and(and(neg(r), p), and(p, p)) -> f', 'b, f, n, t')),
    ('sources', 'neg(neg(p))', 'p', 'yes', 0, 1, None),
    ('sources', '', 'or(p, neg(p))', 'no', 3, 1,
     ('p -> n, neg(p) -> n, or(p, neg(p)) -> n', 'b, f, n, t')),
    ('sources', 'and(p, or(q, r))', 'or(and(p, q), and(p, r))', 'no', 8, 1,
     ('p -> b, q -> f, r -> f, and(p, q) -> f, and(p, r) -> f, or(q, r) -> b, and(p, or(q, r)) -> b, or(and(p, q), and(p, r)) -> f', 'b, f, n, t')),
    ('luk3', '', 'imp(p, p)', 'yes', 0, 1, None),
    ('luk3', 'p, imp(p, q)', 'q', 'yes', 0, 1, None),
    ('luk3', 'nabla(p)', 'imp(neg(p), p)', 'yes', 0, 1, None),
    ('luk3', 'neg(neg(p))', 'p', 'yes', 0, 1, None),
    ('luk3', 'imp(p, q), imp(q, r)', 'imp(p, r)', 'yes', 0, 1, None),
    ('luk3', '', 'imp(imp(p, q), imp(neg(q), neg(p)))', 'yes', 19, 1, None),
    ('luk3', 'nabla(p)', 'p', 'no', 2, 1,
     ('p -> h, nabla(p) -> 1', '0, 1, h')),
    ('luk3', 'p', 'nabla(p)', 'yes', 0, 1, None),
    ('luk3', 'imp(neg(p), q), neg(q)', 'p, nabla(q)', 'yes', 0, 1, None),
    ('luk3', '', 'imp(imp(imp(p, q), p), p)', 'no', 12, 1,
     ('p -> h, q -> 0, imp(p, q) -> h, imp(imp(p, q), p) -> 1, imp(imp(imp(p, q), p), p) -> h', '0, 1, h')),
    ('luk3', 'imp(nabla(nabla(p)), nabla(nabla(q)))', 'neg(nabla(p))', 'no', 8, 1,
     ('p -> h, q -> h, nabla(p) -> 1, nabla(q) -> 1, nabla(nabla(p)) -> 1, nabla(nabla(q)) -> 1, neg(nabla(p)) -> 0, imp(nabla(nabla(p)), nabla(nabla(q))) -> 1', '0, 1, h')),
    ('kleene-ks', 'p, neg(p)', 'q', 'no', 3, 2,
     ('p -> b, q -> 0, neg(p) -> b', '0, 1, b')),
    ('kleene-ks', 'or(p, q)', 'and(p, q)', 'no', 8, 1,
     ('p -> 0, q -> 1, and(p, q) -> 0, or(p, q) -> 1', '0, 1, a')),
    ('kleene-ks', 'or(p, q)', 'p, q', 'yes', 0, 2, None),
    ('kleene-ks', '', 'or(p, neg(p))', 'no', 3, 1,
     ('p -> a, neg(p) -> a, or(p, neg(p)) -> a', '0, 1, a')),
    ('kleene-ks', 'neg(or(p, q))', 'and(neg(p), neg(q))', 'yes', 0, 2, None),
    ('kleene-ks', 'and(p, neg(p))', 'or(q, neg(q))', 'yes', 0, 2, None),
    ('kleene-ks', 'p', 'neg(neg(p))', 'yes', 0, 2, None),
    ('kleene-ks', 'or(and(p, q), neg(r))', 'or(p, r), neg(q)', 'no', 8, 1,
     ('p -> 0, q -> a, r -> 0, neg(q) -> a, neg(r) -> 1, and(p, q) -> 0, or(p, r) -> 0, or(and(p, q), neg(r)) -> 1', '0, 1, a')),
    ('kleene-ks', 'and(or(neg(p), and(q, p)), p)', 'and(or(q, q), r)', 'no', 9, 1,
     ('p -> 1, q -> 1, r -> 0, neg(p) -> 0, and(q, p) -> 1, or(q, q) -> 1, and(or(q, q), r) -> 0, or(neg(p), and(q, p)) -> 1, and(or(neg(p), and(q, p)), p) -> 1', '0, 1, a')),
    ('split', 'nabla(p)', 'imp(neg(p), p)', 'no', 4, 2,
     ('p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, imp(neg(p), p) -> 0|h', '0|h, 1|1')),
    ('split', 'p, imp(p, q)', 'q', 'yes', 0, 2, None),
    ('split', '', 'imp(p, p)', 'yes', 0, 2, None),
    ('split', 'neg(p)', 'imp(p, q)', 'yes', 0, 2, None),
    ('split', 'nabla(neg(p))', 'neg(p)', 'no', 3, 1,
     ('p -> h|h, neg(p) -> h|h, nabla(neg(p)) -> 1|1', '0|0, 1|1, h|h')),
    ('split', 'imp(nabla(p), neg(q))', 'imp(q, neg(p))', 'yes', 0, 2, None),
    ('split', 'imp(imp(neg(r), neg(p)), r)', 'nabla(r)', 'no', 7, 1,
     ('p -> 1|1, r -> 0|0, nabla(r) -> 0|0, neg(p) -> 0|0, neg(r) -> 1|1, imp(neg(r), neg(p)) -> 0|0, imp(imp(neg(r), neg(p)), r) -> 1|1', '0|0, 1|1, h|h')),
]


class TestSearchOrder:
    @pytest.mark.parametrize("name, gamma, delta, answer, explored, tried, first", SEARCH_ORDER)
    def test_pinned_verdict(self, name, gamma, delta, answer, explored, tried, first):
        m = luk3_split() if name == "split" else builtin(name)
        v = decide_multiple(m, parse_formula_list(gamma, m.sig), parse_formula_list(delta, m.sig))
        assert (v.answer, v.assignments_explored, v.components_tried) == (answer, explored, tried)
        if first is None:
            assert v.countermodel is None
        else:
            assert (v.countermodel.pretty(), ", ".join(sorted(v.countermodel.component))) == first


class WatchedMemo(dict):
    """A revision memo that records the most entries it ever held and how
    often it was emptied."""

    largest = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


class TestRevisionMemo:
    def test_capped_memo_keeps_the_search_order(self, monkeypatch):
        """With a memo capped at 4 entries, emptied over and over, every pinned
        search of ``SEARCH_ORDER`` ends as recorded."""
        monkeypatch.setattr(engine, "REVISION_CAP", 4)
        memos = []
        for name, gamma, delta, answer, explored, tried, first in SEARCH_ORDER:
            m = luk3_split() if name == "split" else copy.deepcopy(builtin(name))
            m.compiled.revisions = memo = WatchedMemo()
            memos.append(memo)
            v = decide_multiple(m, parse_formula_list(gamma, m.sig), parse_formula_list(delta, m.sig))
            assert (v.answer, v.assignments_explored, v.components_tried) == (answer, explored, tried)
            if first is None:
                assert v.countermodel is None
            else:
                assert (v.countermodel.pretty(), ", ".join(sorted(v.countermodel.component))) == first
        assert max(memo.largest for memo in memos) == 4
        assert sum(memo.clears for memo in memos) > 0


# ---------------------------------------------------------------------------
# random small PNmatrices against brute force
# ---------------------------------------------------------------------------

RANDOM_SIG = Signature.of({"c": 0, "neg": 1, "imp": 2})


@st.composite
def small_matrices(draw, sig=RANDOM_SIG):
    """2-3 values; entries may hold several values, and in one matrix of
    four they may be empty (partial), so that most matrices are total and
    refute some queries."""
    values = ["a", "b", "c"][: draw(st.integers(2, 3))]
    cells = st.sets(st.sampled_from(values), min_size=draw(st.sampled_from([1, 1, 1, 0])))
    tables = {
        name: {tup: draw(cells) for tup in itertools.product(values, repeat=k)}
        for name, k in sig
    }
    return make_matrix(sig, values, draw(cells), tables)


def random_formulas(variables):
    leaf = st.sampled_from([Var(v) for v in variables] + [App("c", ())])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(lambda a: App("neg", (a,)), sub),
            st.builds(lambda a, b: App("imp", (a, b)), sub, sub),
        ),
        max_leaves=3,
    )


def split_deltas(variables):
    """``[f, neg(f)]``, then at most one more formula: a Δ that a power may
    refute only through a proper split (see ``power_reference``)."""
    f = random_formulas(variables)
    return st.builds(lambda a, extra: [a, App("neg", (a,)), *extra], f, st.lists(f, max_size=1))


def brute_possible_values(m, a, x):
    """Values of a over every prevaluation on sub(a) that maps its variable
    to x and whose image lies in a maximal viable set containing x."""
    omega = subformula_closure([a])
    maximal = [w for w in brute_viable_sets(m) if x in w]
    out = set()
    for assignment in itertools.product(m.values, repeat=len(omega)):
        env = dict(zip(omega, assignment))
        if any(isinstance(f, Var) and env[f] != x for f in omega):
            continue
        if any(
            isinstance(f, App) and env[f] not in m.tables[f.head][tuple(env[g] for g in f.args)]
            for f in omega
        ):
            continue
        if any(set(assignment) <= w for w in maximal):
            out.add(env[a])
    return frozenset(out)


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(
        small_matrices(),
        st.lists(random_formulas("pq"), max_size=2),
        st.lists(random_formulas("pq"), max_size=2),
    )
    def test_decide_agrees_with_oracle(self, m, gamma, delta):
        assume(len(subformula_closure(gamma + delta)) <= 5)
        v = decide_multiple(m, gamma, delta)
        assert v.answer == oracle_decide(m, gamma, delta)
        if v.answer == "no":
            assert check_countermodel(m, gamma, delta, v.countermodel) == []

    @settings(max_examples=150, deadline=None)
    @given(small_matrices(), random_formulas("p"))
    def test_possible_values_by_enumeration(self, m, a):
        assume(len(subformula_closure([a])) <= 5)
        for x in m.values:
            assert possible_values(m, a, x) == brute_possible_values(m, a, x)

    @settings(max_examples=150, deadline=None)
    @given(
        small_matrices(),
        st.lists(random_formulas("pq"), max_size=2),
        st.lists(st.lists(random_formulas("pq"), max_size=3), max_size=4),
    )
    def test_batch_equals_single_queries(self, m, gamma, deltas):
        deltas += deltas[:1]  # a repeated query
        assert decide_batch(m, gamma, deltas) == [
            decide_multiple(m, gamma, delta) for delta in deltas
        ]

    @settings(max_examples=150, deadline=None)
    @given(small_matrices(), random_formulas("p"))
    def test_value_vector_by_enumeration(self, m, a):
        assume(len(subformula_closure([a])) <= 5)
        assert possible_value_vector(m, a) == tuple(
            brute_possible_values(m, a, x) for x in m.values
        )


def assert_sweeps_match(m, pool, max_premises):
    """For every base of at most max_premises pool formulas, in size order,
    ``unentailed`` equals one search per formula: swept with the base's own
    formulas as entailed, and again with its sub-bases' entailments."""
    cl = Closure(pool, m.sig)
    entails = {}
    for gamma in (g for size in range(max_premises + 1) for g in itertools.combinations(pool, size)):
        context = PremiseContext(m, cl, gamma)
        expected = [a for a in pool if a not in gamma and context.decide([a]).answer == "no"]
        assert PremiseContext(m, cl, gamma).unentailed(pool, set(gamma)) == expected, gamma
        subs = itertools.combinations(gamma, len(gamma) - 1) if gamma else ()
        carried = set(gamma).union(*(entails[g] for g in subs))
        assert PremiseContext(m, cl, gamma).unentailed(pool, carried) == expected, gamma
        entails[gamma] = set(pool).difference(expected)


class TestUnentailed:
    """``PremiseContext.unentailed`` against one search per candidate."""

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(), st.integers(3, 9))
    def test_sweep_equals_one_search_per_formula(self, m, cap):
        assert_sweeps_match(m, formula_pool(m.sig, ("p", "q"), 2, cap), 2)

    def test_four_value_matrices(self):
        # a countermodel extended outside its component would refute
        # formulas the premises entail; four values give room for that
        rng = seeded("unentailed")
        pool = formula_pool(RANDOM_SIG, ("p", "q"), 2, 8)
        for _ in range(300):
            values = ["a", "b", "c", "d"][: rng.randint(2, 4)]

            def cell():
                return {v for v in values if rng.random() < 0.4}

            tables = {
                name: {tup: cell() for tup in itertools.product(values, repeat=k)}
                for name, k in RANDOM_SIG
            }
            assert_sweeps_match(make_matrix(RANDOM_SIG, values, cell(), tables), pool, 1)


class TestCarryOver:
    """What a context carries to those grown from it: its fixpoints, grown
    one premise at a time, and the designation masks of the countermodels
    it and they extend, kept once per root."""

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(), st.integers(3, 9), st.data())
    def test_grown_fixpoints_equal_fresh_ones(self, m, cap, data):
        pool = formula_pool(m.sig, ("p", "q"), 2, cap)
        cl = Closure(pool, m.sig)
        gamma = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        grown = PremiseContext(m, cl, ())
        for b in gamma:
            if data.draw(st.booleans()):  # the parent's fixpoints made before the child's
                grown.decide([b])
            grown = grown.with_premise(b)
        fresh = PremiseContext(m, cl, gamma)
        for k in range(len(m.compiled.components)):
            assert grown._fixpoint(k) == fresh._fixpoint(k), k
        assert [grown.decide([a]) for a in pool] == [fresh.decide([a]) for a in pool]

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(), st.integers(3, 9), st.data())
    def test_a_mask_refutes_every_base_it_designates(self, m, cap, data):
        pool = formula_pool(m.sig, ("p", "q"), 2, cap)
        cl = Closure(pool, m.sig)
        gamma = data.draw(st.lists(st.sampled_from(pool), max_size=2))
        delta = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        d = PremiseContext(m, cl, gamma).countermodel_mask(delta)
        assert (d is None) == (decide_multiple(m, gamma, delta).answer == "yes")
        if d is None:
            return
        designated = [f for f in pool if d >> cl.node[f] & 1]
        assert set(gamma) <= set(designated) and set(delta).isdisjoint(designated)
        base = data.draw(st.lists(st.sampled_from(designated), max_size=3)) if designated else []
        rest = [a for a in pool if a not in designated]
        # one valuation designates the base and none of the rest
        assert decide_multiple(m, base, rest).answer == "no"

    def test_a_mask_values_every_node(self):
        # with no premises and no conclusions the search covers no node;
        # the extension still gives each one a value: p is 0, so neg(p) is 1
        m = builtin("bool2")
        pool = parse_formula_list("p, neg(p)", m.sig)
        cl = Closure(pool, m.sig)
        assert PremiseContext(m, cl, ()).countermodel_mask([]) == 1 << cl.node[pool[1]]

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(), st.integers(3, 9))
    def test_sweeps_with_carried_masks(self, m, cap):
        # every base of at most two formulas, grown from one root in size
        # order, sweeps as one search per formula does, and each mask its
        # sweep keeps designates the base
        pool = formula_pool(m.sig, ("p", "q"), 2, cap)
        cl = Closure(pool, m.sig)
        root = PremiseContext(m, cl, ())
        contexts = {}
        for gamma in (g for size in range(3) for g in itertools.combinations(pool, size)):
            context = contexts[gamma[:-1]].with_premise(gamma[-1]) if gamma else root
            contexts[gamma] = context
            fresh = PremiseContext(m, cl, gamma)
            expected = [a for a in pool if a not in gamma and fresh.decide([a]).answer == "no"]
            known = len(root._kept)
            assert context.unentailed(pool, set(gamma)) == expected, gamma
            for d in root._kept[known:]:
                assert all(d >> cl.node[f] & 1 for f in gamma), gamma

    def test_a_kept_mask_must_miss_the_whole_query(self):
        # p, neg(p) hold collectively over bool2, though each countermodel
        # the sweep keeps misses one of them
        m = builtin("bool2")
        pool = parse_formula_list("p, neg(p)", m.sig)
        root = PremiseContext(m, Closure(pool, m.sig), ())
        assert root.unentailed(pool, set()) == list(pool)
        assert root.entails(pool)
        assert not root.with_premise(pool[0]).entails(pool[1:])

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(), st.integers(3, 9), st.data())
    def test_kept_masks_answer_as_searches_do(self, m, cap, data):
        # contexts grown from one root share what they keep, so later
        # queries are answered from countermodels found for earlier ones
        pool = formula_pool(m.sig, ("p", "q"), 2, cap)
        root = PremiseContext(m, Closure(pool, m.sig), ())
        for _ in range(data.draw(st.integers(1, 6))):
            gamma = data.draw(st.lists(st.sampled_from(pool), max_size=2))
            context = root
            for b in gamma:
                context = context.with_premise(b)
            if data.draw(st.booleans()):
                expected = [a for a in pool if decide_single(m, gamma, a).answer == "no"]
                assert context.unentailed(pool, set()) == expected, gamma
                # as the refuter's collective check asks: every kept mask
                # designating gamma meets some formula of expected
                collective = decide_multiple(m, gamma, expected).answer == "yes"
                assert context.entails(expected) == collective, gamma
            delta = data.draw(st.lists(st.sampled_from(pool), max_size=3))
            expected = decide_multiple(m, gamma, delta).answer == "yes"
            assert context.entails(delta) == expected, (gamma, delta)


def uncached_propagate(cl, m, dom, narrowed=None, inside=None):
    """``engine._propagate`` as it was before revisions were memoised: every
    revision runs over the combinations of its argument domains.  Entries
    come from m's own tables, keyed by value names, as masks keyed by
    tuples of value indices."""
    index = {v: i for i, v in enumerate(m.values)}
    tables = {
        c: {tuple(index[x] for x in tup): sum(1 << index[v] for v in out) for tup, out in t.items()}
        for c, t in m.tables.items()
    }
    heads = cl.heads
    parents = [[] for _ in heads]
    for i, d in enumerate(cl.distinct):
        for a in d:
            parents[a].append(i)
    if narrowed is None:
        pending = [i for i, h in enumerate(heads) if h is not None]
        queued = [h is not None for h in heads]
    else:
        pending, queued = [], [inside is not None] * len(heads)
        for i in inside or ():
            queued[i] = False
        for g in narrowed:
            for h in parents[g] if heads[g] is None else parents[g] + [g]:
                if not queued[h]:
                    queued[h] = True
                    pending.append(h)
    while pending:
        i = pending.pop()
        queued[i] = False
        table = tables[heads[i]]
        own = dom[i]
        distinct, positions = cl.distinct[i], cl.positions[i]
        out = 0
        support = [0] * len(distinct)
        for combo in itertools.product(*[mask_bits(dom[g]) for g in distinct]):
            hit = table[combo if positions is None else tuple(combo[k] for k in positions)] & own
            if hit:
                out |= hit
                for k, x in enumerate(combo):
                    support[k] |= 1 << x
        changed = []
        if out != own:
            dom[i] = out
            changed.append(i)
        for g, s in zip(distinct, support):
            if s != dom[g]:
                dom[g] = s
                changed.append(g)
        for g in changed:
            if not dom[g]:
                return False
            for h in parents[g] if heads[g] is None else parents[g] + [g]:
                if h != i and not queued[h]:
                    queued[h] = True
                    pending.append(h)
    return True


#: RANDOM_SIG with a ternary connective, whose repeated arguments can sit in
#: different positions over the same distinct arguments
TERNARY_SIG = Signature.of({"c": 0, "neg": 1, "imp": 2, "if": 3})


class TestPropagation:
    @settings(max_examples=150, deadline=None)
    @given(
        small_matrices(TERNARY_SIG),
        st.lists(random_formulas("pq"), min_size=1, max_size=3),
        random_formulas("pq"),
        random_formulas("pq"),
        st.data(),
    )
    def test_memoised_revisions_reach_the_reference_fixpoint(self, m, roots, a, b, data):
        """From random domains, in the full and in the narrowed mode, the
        memoised propagation ends with the reference's domains and answer,
        on a cold memo and again on the warm one, which it no longer grows."""
        repeated = [App("imp", (a, a)), App("if", (a, b, a)), App("if", (a, a, b))]
        cl = Closure([*roots, *repeated], m.sig)
        assert any(p is not None for p in cl.positions)
        n = len(cl.formulas)
        dom = data.draw(st.lists(st.integers(0, (1 << len(m.values)) - 1), min_size=n, max_size=n))
        narrowed = inside = None
        if data.draw(st.booleans()):
            # a fixpoint, then some nodes of a sub-closure narrowed again
            uncached_propagate(cl, m, dom)
            reached = data.draw(st.lists(st.sampled_from(range(n)), max_size=3))
            inside = cl.reach(reached) if reached and data.draw(st.booleans()) else None
            pool = sorted(range(n) if inside is None else inside)
            narrowed = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
            for g in narrowed:
                dom[g] &= data.draw(st.integers(0, (1 << len(m.values)) - 1))
        expected = dom.copy()
        answer = uncached_propagate(cl, m, expected, narrowed, inside)
        memo = m.compiled.revisions
        for run in range(2):
            got = dom.copy()
            assert engine._propagate(cl, m.compiled, got, narrowed, inside) == answer
            assert got == expected
            if run == 0:
                size = len(memo)
        assert len(memo) == size

    def test_argument_positions_are_part_of_the_key(self):
        """if(p, q, p) and if(p, p, q) revise over the same masks of p and q,
        in different positions; if picks its last argument."""
        values = ["0", "1"]
        tables = {
            name: {tup: set(tup[-1:]) or {"0"} for tup in itertools.product(values, repeat=k)}
            for name, k in TERNARY_SIG
        }
        m = make_matrix(TERNARY_SIG, values, ["1"], tables)
        p, q = Var("p"), Var("q")
        pqp, ppq = App("if", (p, q, p)), App("if", (p, p, q))
        cl = Closure([pqp, ppq], m.sig)
        dom = [0b11] * len(cl.formulas)
        dom[cl.node[p]], dom[cl.node[q]] = 0b01, 0b10
        expected = dom.copy()
        assert uncached_propagate(cl, m, expected)
        assert engine._propagate(cl, m.compiled, dom)
        assert dom == expected
        assert (dom[cl.node[pqp]], dom[cl.node[ppq]]) == (0b01, 0b10)


def repeated_uses(sig, a, b):
    """Applications of each connective of arity 2 or more in sig with
    repeated arguments: all a, then a and b alternating, then b last."""
    out = []
    for c, k in sig:
        if k >= 2:
            out += [App(c, (a,) * k), App(c, ((a, b) * k)[:k]), App(c, (a,) * (k - 1) + (b,))]
    return out


#: the fields of ``Closure`` that ``closure_reference`` builds the old way
CLOSURE_FIELDS = (
    "roots", "formulas", "node", "heads", "args", "distinct", "positions", "keys", "watch",
    "compound", "is_compound",
)


class TestClosureIndex:
    """The one-pass index equals the construction it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["ternary", *fixture_names()]),
        st.randoms(use_true_random=False),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_index_equals_the_reference(self, name, rng, count, depth):
        sig = TERNARY_SIG if name == "ternary" else builtin(name).sig
        roots = [random_formula(rng, sig, ("p", "q", "r"), depth) for _ in range(count)]
        roots += repeated_uses(sig, roots[0], roots[-1])
        cl, ref = Closure(roots, sig), reference_closure(roots, sig)
        for field in CLOSURE_FIELDS:
            assert getattr(cl, field) == getattr(ref, field), field

    def test_repeated_arguments(self):
        """if(p, q, p) and imp(p, p) index their distinct arguments once, with positions."""
        p, q = Var("p"), Var("q")
        roots = [App("if", (p, q, p)), App("imp", (p, p))]
        cl = Closure(roots, TERNARY_SIG)
        ref = reference_closure(roots, TERNARY_SIG)
        for field in CLOSURE_FIELDS:
            assert getattr(cl, field) == getattr(ref, field), field
        pqp, pp = cl.node[roots[0]], cl.node[roots[1]]
        assert (cl.distinct[pqp], cl.positions[pqp]) == ((0, 1), (0, 1, 0))
        assert (cl.distinct[pp], cl.positions[pp]) == ((0,), (0, 0))
        assert cl.watch[0] == sorted([pp, pqp]) and cl.watch[pqp] == [pqp]

    def test_first_ill_formed_node_in_closure_order_is_named(self):
        """Of two ill-formed nodes, the first in closure order is named,
        whatever the order of the roots."""
        m = builtin("bool2")
        p = Var("p")
        roots = [App("neg", (p, p)), App("zap", (p,))]
        message = "formula zap(p) not well-formed over the matrix signature"
        with pytest.raises(ValueError) as ref:
            reference_closure(roots, m.sig)
        assert str(ref.value) == message
        for order in (roots, roots[::-1]):
            with pytest.raises(ValueError) as got:
                Closure(order, m.sig)
            assert str(got.value) == message


def value_matrix(spec):
    """A fixture, a strict product "a*b" of two, or a power "power(name,k)"."""
    if spec.startswith("power("):
        name, k = spec[len("power("):-1].split(",")
        return power(builtin(name), int(k))
    if "*" in spec:
        return strict_product(*map(builtin, spec.split("*")))
    return builtin(spec)


#: the fixtures, their same-signature products and their 16-value powers
VALUE_MATRICES = [
    *fixture_names(),
    *(f"{a}*{b}" for a, b in itertools.product(fixture_names(), repeat=2)
      if builtin(a).sig == builtin(b).sig),
    "power(bool2,4)",
    "power(bool2n,4)",
    "power(kleene-ks,2)",
    "power(sources,2)",
]

#: assignments after which the reference enumeration gives up
REFERENCE_BUDGET = 20_000

#: one-variable formulas on which the enumeration took seconds to minutes
#: over the powers of bool2n, with 11 and 9 nodes
BOX_11 = "pl(squig(box(squig(p, p)), box(box(p))), squig(pl(p, box(p)), box(pl(p, squig(p, p)))))"
BOX_9 = "pl(squig(box(p), box(box(p))), squig(pl(p, box(p)), box(pl(p, p))))"
#: searches for BOX_11's vector over power(bool2n,4): one per value of the
#: variable and value of the formula, since each search finds one new value
SEARCHES_BOX_11 = 256


def power_law_vector(m, pm, a):
    """``possible_value_vector(pm, a)`` for a power pm of m by the power law:
    a prevaluation over the power is a tuple of prevaluations over m, so the
    set at a tuple is the product of m's sets at its coordinates."""
    base = dict(zip(m.values, possible_value_vector(m, a)))
    parts = pm.meta["parts"]
    name = {part: v for v, part in parts.items()}
    return tuple(
        frozenset(name[t] for t in itertools.product(*(base[c] for c in parts[x])))
        for x in pm.values
    )


@pytest.fixture
def searches(monkeypatch):
    """The number of ``_search_component`` calls made so far."""
    calls = []
    search = engine._search_component
    monkeypatch.setattr(
        engine, "_search_component", lambda *args: calls.append(1) or search(*args)
    )
    return calls


class TestValueSearches:
    """Possible values from first-solution searches, against the enumeration
    they replaced (``value_reference``) and the power law."""

    @pytest.mark.parametrize("spec", VALUE_MATRICES)
    def test_matches_the_enumeration(self, spec):
        m = value_matrix(spec)
        rng = seeded(f"value-reference:{spec}")
        checked = 0
        for _ in range(40):
            a = random_formula(rng, m.sig, ["p"], 3)
            expected = reference_value_vector(m, a, REFERENCE_BUDGET)
            if expected is not None:
                checked += 1
                assert possible_value_vector(m, a) == expected, a
                x = rng.choice(m.values)
                assert possible_values(m, a, x) == expected[m.values.index(x)], (a, x)
        assert checked >= 20

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", fixture_names())
    def test_power_law(self, name, k):
        m = builtin(name)
        pm = power(m, k)
        rng = seeded(f"power-law:{name}:{k}")
        for _ in range(8):
            a = random_formula(rng, m.sig, ["p"], 3)
            assert possible_value_vector(pm, a) == power_law_vector(m, pm, a), a

    @pytest.mark.parametrize("k, text", [(3, BOX_11), (4, BOX_9), (4, BOX_11)])
    def test_power_law_where_the_enumeration_took_minutes(self, k, text):
        m = builtin("bool2n")
        pm = power(m, k)
        a = parse_formula(text, m.sig)
        assert possible_value_vector(pm, a) == power_law_vector(m, pm, a)

    def test_searches_on_the_fourth_power(self, searches):
        m = power(builtin("bool2n"), 4)
        possible_value_vector(m, parse_formula(BOX_11, m.sig))
        assert len(searches) == SEARCHES_BOX_11

    def test_one_value_takes_fewer_searches_than_the_vector(self, searches):
        m = power(builtin("kleene-ks"), 2)
        a = parse_formula("or(p, neg(p))", m.sig)
        possible_values(m, a, m.values[0])
        one = len(searches)
        possible_value_vector(m, a)
        assert 0 < one < len(searches) - one

    def test_a_closed_formula_is_searched_once_per_component(self, searches):
        # power(bool2n,4) has one component, of 16 values; the formula takes
        # each of them, one new value per search, in one search loop rather
        # than one loop per value of the (absent) variable
        m = builtin("bool2n")
        pm = power(m, 4)
        a = parse_formula("pl(botop, box(botop))", pm.sig)
        assert len(pm.compiled.components) == 1
        vector = possible_value_vector(pm, a)
        assert len(searches) == 16
        assert vector == (frozenset(pm.values),) * 16 == power_law_vector(m, pm, a)
        searches.clear()
        assert possible_values(pm, a, pm.values[3]) == frozenset(pm.values)
        assert len(searches) == 16


#: two-valued classical tables over ``RANDOM_SIG``, with c false
CLASSICAL = make_matrix(RANDOM_SIG, ["a", "b"], ["b"], {
    "c": {(): {"a"}},
    "neg": {("a",): {"b"}, ("b",): {"a"}},
    "imp": {("a", "a"): {"b"}, ("a", "b"): {"b"}, ("b", "a"): {"a"}, ("b", "b"): {"b"}},
})


def assert_power_law(m, k, gamma, delta, pm=None):
    """decide_multiple over ``power(m, k)`` answers as ``power_reference``
    does from m, and every "no" on either side is a checked countermodel."""
    pm = power(m, k) if pm is None else pm
    v = decide_multiple(pm, gamma, delta)
    answer, cm = reference_decide_power(m, k, gamma, delta)
    assert v.answer == answer, (gamma, delta)
    if answer == "no":
        assert check_countermodel(pm, gamma, delta, v.countermodel) == []
        assert check_countermodel(pm, gamma, delta, cm) == []
    return answer


class TestPowerConsequence:
    """Consequence over a power, decided from its base (``power_reference``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        small_matrices(),
        st.sampled_from([2, 3]),
        st.lists(random_formulas("pq"), max_size=2),
        st.one_of(st.lists(random_formulas("pq"), max_size=3), split_deltas("pq")),
    )
    @example(CLASSICAL, 2, [], [Var("p"), App("neg", (Var("p"),))])  # refuted by a split alone
    @example(CLASSICAL, 3, [Var("q")], [Var("p"), App("neg", (Var("p"),)), App("imp", (Var("q"), Var("p")))])
    def test_random_matrices(self, m, k, gamma, delta):
        assert_power_law(m, k, gamma, delta)

    def test_split_only_refutations_on_total_matrices(self):
        answers = collections.Counter()
        rng = seeded("power split sweep")
        for size in (2, 3):
            values = ["a", "b", "c"][:size]
            for m in total_nmatrices(f"power split sweep:{size}", RANDOM_SIG, values, 15):
                for k, _ in itertools.product((2, 3), range(5)):
                    gamma = [random_formula(rng, RANDOM_SIG, "pq", 2) for _ in range(rng.randint(0, 2))]
                    f = random_formula(rng, RANDOM_SIG, "pq", 2)
                    extra = [random_formula(rng, RANDOM_SIG, "pq", 2) for _ in range(rng.randint(0, 1))]
                    delta = [f, App("neg", (f,)), *extra]
                    answer = assert_power_law(m, k, gamma, delta)
                    answers[answer, decide_multiple(m, gamma, delta).answer] += 1
        # some queries fail over a power only through a proper split
        assert answers["no", "yes"], answers

    def test_sixteen_value_powers(self):
        # power(bool2n, 4) is left out: some of its queries search for seconds
        answers = collections.Counter()
        for name, k in [("bool2", 4), ("sources", 2), ("kleene-ks", 2)]:
            m = builtin(name)
            pm = power(m, k)
            assert len(pm.values) == 16
            rng = seeded(f"power-consequence:{name}:{k}")
            for _ in range(100):
                gamma, delta = random_query(rng, m.sig, ("p", "q", "r", "s"), closure_cap=10)
                answer = assert_power_law(m, k, gamma, delta, pm)
                answers[answer, decide_multiple(m, gamma, delta).answer] += 1
        # some queries fail over a power only through a proper split
        assert answers["yes", "yes"] and answers["no", "no"] and answers["no", "yes"], answers
