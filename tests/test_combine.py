import collections
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_formula, random_query, seeded
from partition_reference import reference_decide_combined_ctx
from rewrite_reference import reference_axiom_instances, reference_skeleton
from test_syntax import formulas
from pnmatrix import (
    AxiomSet,
    MonolithMap,
    SaturationRefused,
    Signature,
    builtin,
    combine_multiple,
    combine_single_power,
    combine_single_saturated,
    axiom_instances,
    decide_combined_ctx,
    decide_multiple,
    decide_with_axioms,
    extend,
    fixture_names,
    make_matrix,
    parse_formula,
    parse_formula_list,
    prune,
    reduct,
    rename_connectives,
    skeleton,
    strict_product,
    subformula_closure,
    viable_components,
)
from pnmatrix import combine, matrix_core
from pnmatrix.engine import Closure
from pnmatrix.syntax import App, Var


def sub_sig(m, names):
    return Signature.of({c: m.sig.arity(c) for c in names})


class TestCombinators:
    def test_multiple_combination_is_exact(self):
        c = combine_multiple(builtin("kleene-imp"), builtin("luk-imp"))
        assert c.status == "exact"
        assert len(c.product.values) == 5

    def test_single_combination_of_known_saturated_inputs(self):
        b2 = builtin("bool2")
        c = combine_single_saturated(builtin("neg3"), reduct_with_meta(b2, ["and"]))
        assert c.status == "exact"

    def test_single_combination_refuses_unsaturated_input(self):
        with pytest.raises(SaturationRefused) as e:
            combine_single_saturated(builtin("kleene-imp"), builtin("neg3"))
        assert e.value.side == "left"
        assert e.value.result.refuted

    def test_unproven_saturation_is_conditional(self):
        s = builtin("sources")
        # strip the metadata flag: the refuter finds nothing, so the result
        # is allowed but hedged
        bare = reduct(s, s.sig)
        c = combine_single_saturated(bare, builtin("neg3"))
        assert c.status == "conditional-on-saturation"
        assert c.notes

    def test_power_combination_is_labeled(self):
        b2 = builtin("bool2")
        c = combine_single_power(
            reduct(b2, sub_sig(b2, ["neg"])), reduct(b2, sub_sig(b2, ["or"])), 2
        )
        assert c.status == "finite-power-approximation"
        # compatible pairs only: 1 designated pair plus 3x3 undesignated pairs
        assert len(c.product.values) == 10

    def test_power_combination_decides(self):
        p = combine_single_power(builtin("kleene-imp"), builtin("luk-imp"), 2).product
        assert len(p.values) == 65
        maximal = viable_components(p).maximal
        assert len(maximal) == 20
        for w in maximal:
            assert all(
                p.tables[name][tup] & w
                for name, arity in p.sig
                for tup in itertools.product(sorted(w), repeat=arity)
            )
        assert set(prune(p).values) == set().union(*maximal)
        f = parse_formula("imp(p, p)", p.sig)
        assert decide_multiple(p, [], [f]).answer == "yes"


def reduct_with_meta(m, names):
    r = reduct(m, sub_sig(m, names))
    return type(r)(
        sig=r.sig,
        values=r.values,
        designated=r.designated,
        tables=r.tables,
        meta=dict(m.meta),
    )


class TestContextDecision:
    def test_overlap_short_circuit(self):
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        p = parse_formula("p", m1.sig.union(m2.sig))
        d = decide_combined_ctx(m1, m2, [p], [p])
        assert d.answer == "yes" and d.partitions_checked == 0

    def test_failing_partition_reported(self):
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        union = m1.sig.union(m2.sig)
        gamma = parse_formula_list("neg(p)", union)
        delta = parse_formula_list("neg(and(p, p))", union)
        d = decide_combined_ctx(m1, m2, gamma, delta)
        assert d.answer == "no"
        assert d.failing_partition is not None
        assert d.certified  # the product is total here

    def test_single_mode(self):
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        union = m1.sig.union(m2.sig)
        gamma = parse_formula_list("neg(neg(p))", union)
        a = parse_formula("p", union)
        d = decide_combined_ctx(m1, m2, gamma, [a], mode="single")
        assert d.answer == "yes"

    def test_context_cap(self):
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        union = m1.sig.union(m2.sig)
        deep = parse_formula(
            "and(p, and(q, and(r, and(s, and(t, and(u, and(v, w)))))))", union
        )
        with pytest.raises(ValueError, match="cap"):
            decide_combined_ctx(m1, m2, [deep], [parse_formula("p", union)])

    def test_mode_errors(self):
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        union = m1.sig.union(m2.sig)
        p, q = parse_formula("p", union), parse_formula("q", union)
        with pytest.raises(ValueError, match="^bad mode 'both'$"):
            decide_combined_ctx(m1, m2, [p], [p], mode="both")
        for delta in ([], [p, q]):
            with pytest.raises(ValueError, match="^single mode takes exactly one conclusion$"):
                decide_combined_ctx(m1, m2, [p], delta, mode="single")

    def test_matches_the_partition_loop(self):
        # every fixture pair that has a common signature, both modes, with
        # and without an extra context formula
        rng = seeded("ctx-reference")
        answers = collections.Counter()
        for a, b in itertools.combinations_with_replacement(fixture_names(), 2):
            m1, m2 = builtin(a), builtin(b)
            try:
                union = m1.sig.union(m2.sig)
            except ValueError:
                continue
            for mode, extras, _ in itertools.product(("multiple", "single"), (0, 1), range(3)):
                while True:
                    variables = ("p", "q")[: rng.randint(1, 2)]
                    gamma = [random_formula(rng, union, variables, 2) for _ in range(rng.randint(0, 2))]
                    delta = [random_formula(rng, union, variables, 2)
                             for _ in range(1 if mode == "single" else rng.randint(1, 2))]
                    extra = [random_formula(rng, union, variables, 2) for _ in range(extras)]
                    if len(subformula_closure(gamma + delta + extra)) <= 8:
                        break
                got = decide_combined_ctx(m1, m2, gamma, delta, mode=mode, ctx_extra=extra)
                want = reference_decide_combined_ctx(m1, m2, gamma, delta, mode, extra)
                assert got == want, (a, b, mode, gamma, delta, extra)
                answers[mode, got.answer] += 1
        assert sum(answers.values()) == 36 * 12 and len(answers) == 4, answers

    def test_context_skeletons_equal_the_per_formula_walks(self):
        # one map, and so one memo, per side, as decide_combined_ctx uses
        # them, over every fixture pair that has a common signature
        rng = seeded("ctx-skeletons")
        pairs = 0
        for a, b in itertools.combinations_with_replacement(fixture_names(), 2):
            m1, m2 = builtin(a), builtin(b)
            try:
                union = m1.sig.union(m2.sig)
            except ValueError:
                continue
            pairs += 1
            for _ in range(3):
                gamma, delta = random_query(rng, union, ("p", "q"), closure_cap=combine.CTX_CAP)
                ctx = subformula_closure(gamma + delta)
                for m in (m1, m2):
                    mm, ref = MonolithMap(), MonolithMap()
                    shared = [skeleton(f, m.sig, mm)[0] for f in ctx]
                    assert shared == [reference_skeleton(f, m.sig, ref) for f in ctx], (a, b)
                    assert list(mm.var_of_monolith.items()) == list(ref.var_of_monolith.items())
        assert pairs == 36

    def test_one_closure_per_side(self, monkeypatch):
        built = []

        def counting(roots, sig):
            built.append(sig)
            return Closure(roots, sig)

        monkeypatch.setattr(combine, "Closure", counting)
        m1, m2 = builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"])
        union = m1.sig.union(m2.sig)
        gamma = parse_formula_list("neg(p), and(p, q)", union)
        for mode, delta in (("multiple", "neg(and(p, p)), q"), ("single", "neg(and(q, p))")):
            built.clear()
            d = decide_combined_ctx(m1, m2, gamma, parse_formula_list(delta, union), mode=mode)
            assert d.partitions_checked > 1
            assert built == [m1.sig, m2.sig]
        built.clear()
        d = decide_combined_ctx(m1, m2, gamma, gamma[:1])
        assert d.note == "premises and conclusions overlap" and built == []

    @pytest.mark.parametrize("pair", [("kleene-imp", "luk3"), ("luk3", "kleene-imp")])
    def test_uncertified_no_needs_a_cut(self, pair):
        # the product says yes; the subformula context lacks the cut formula
        m1, m2 = builtin(pair[0]), builtin(pair[1])
        union = m1.sig.union(m2.sig)
        gamma = parse_formula_list("neg(nabla(p))", union)
        delta = parse_formula_list("q, neg(nabla(q))", union)
        assert decide_multiple(strict_product(m1, m2), gamma, delta).answer == "yes"
        d = decide_combined_ctx(m1, m2, gamma, delta)
        assert (d.answer, d.certified, d.partitions_checked) == ("no", False, 4)
        assert d.failing_partition == (
            tuple(parse_formula_list("neg(nabla(p)), nabla(q)", union)),
            tuple(parse_formula_list("p, nabla(p), q, neg(nabla(q))", union)),
        )
        cut = [parse_formula("imp(imp(q, p), q)", union)]
        d = decide_combined_ctx(m1, m2, gamma, delta, ctx_extra=cut)
        assert (d.answer, d.certified, d.partitions_checked) == ("yes", False, 32)

    def test_no_strict_product_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("strict_product called")

        monkeypatch.setattr(combine, "strict_product", refuse)
        monkeypatch.setattr(matrix_core, "strict_product", refuse)
        cases = [  # the left and right parts, and whether their product is total
            (builtin("neg3"), reduct_with_meta(builtin("bool2"), ["and"]), True),
            (builtin("kleene-imp"), builtin("luk3"), False),
            (builtin("luk3"), builtin("kleene-imp"), False),
        ]
        for m1, m2, total in cases:
            union = m1.sig.union(m2.sig)
            gamma = parse_formula_list("neg(p)", union)
            for mode, delta in (("multiple", "p, q"), ("single", "neg(neg(p))")):
                d = decide_combined_ctx(m1, m2, gamma, parse_formula_list(delta, union), mode=mode)
                assert d.certified is total and d.partitions_checked > 0

    def test_parts_past_the_value_cap_are_decided(self):
        # the product would have 1 + 1448 * 1448 values, past the build bound;
        # certified needs none of them
        names = [f"v{i}" for i in range(1449)]
        m = make_matrix(Signature.of({"neg": 1}), names, names[:1],
                        {"neg": {(v,): {v} for v in names}})
        with pytest.raises(matrix_core.MatrixError, match="^strict product needs more than 2097152 values"):
            strict_product(m, m)
        neg_p = parse_formula("neg(p)", m.sig)
        d = decide_combined_ctx(m, m, [neg_p], [parse_formula("p", m.sig)])
        assert (d.answer, d.certified) == ("yes", True)

    def test_arity_clash_is_reported_first(self):
        m1 = builtin("neg3")
        m2 = make_matrix(Signature.of({"neg": 2}), ["0"], ["0"], {"neg": {("0", "0"): {"0"}}})
        bad = App("neg", (Var("p"), Var("q")))
        with pytest.raises(ValueError, match="^connective 'neg' declared with arities 1 and 2$"):
            decide_combined_ctx(m1, m2, [], [bad])

    @pytest.mark.parametrize("gamma, delta, extra, named", [
        (["p"], ["q"], [App("zzz", ())], "zzz"),  # in neither signature
        ([], [App("neg", (Var("p"), Var("q")))], [], "neg(p, q)"),  # neg is unary
        (["imp(p, p)"], [App("imp", (App("neg", (Var("imp"),)), Var("q")))], [], "imp"),
    ])
    def test_ill_formed_formulas_are_rejected(self, monkeypatch, gamma, delta, extra, named):
        monkeypatch.setattr(combine, "skeleton", None)  # raised before any skeleton
        m1, m2 = builtin("kleene-imp"), builtin("neg3")
        union = m1.sig.union(m2.sig)
        gamma = [parse_formula(f, union) for f in gamma]
        delta = [parse_formula(f, union) if isinstance(f, str) else f for f in delta]
        message = f"formula {named} not well-formed over the combined signature"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decide_combined_ctx(m1, m2, gamma, delta, ctx_extra=extra)


class TestSkeletonNameClashes:
    """A part may declare a connective named like a skeleton variable
    (``m1``, ``v_p``, ...); the decision is then the one it gives once those
    connectives are renamed to names no skeleton uses."""

    QUERIES = [
        ("imp(p, q)", "neg(imp(p, q))"),
        ("p", "neg(p)"),
        ("imp(p, q), p", "q"),
        ("neg(neg(p))", "p"),
        ("imp(neg(p), q), neg(p)", "q"),
        ("neg(imp(p, p))", "imp(q, neg(q))"),
    ]

    @pytest.mark.parametrize("extra", [
        {"m1": 0},
        {"v_p": 1},
        {"m1": 0, "mm1": 1, "m2": 2},
        {"v_p": 0, "v_v_p": 1, "v_q": 0},
    ], ids=lambda e: ",".join(e))
    @pytest.mark.parametrize("mode", ["multiple", "single"])
    def test_answers_as_after_renaming(self, extra, mode):
        neg3, kimp = builtin("neg3"), builtin("kleene-imp")
        part = extend(neg3, neg3.sig.union(Signature.of(extra)))
        renamed = rename_connectives(part, {c: f"c{i}" for i, c in enumerate(extra)})
        for left, right in self.QUERIES:
            gamma = parse_formula_list(left, part.sig.union(kimp.sig))
            delta = parse_formula_list(right, part.sig.union(kimp.sig))
            if mode == "single" and len(delta) != 1:
                continue
            for pair, renamed_pair in (((part, kimp), (renamed, kimp)), ((kimp, part), (kimp, renamed))):
                got = decide_combined_ctx(*pair, gamma, delta, mode=mode)
                assert got == decide_combined_ctx(*renamed_pair, gamma, delta, mode=mode), (left, right)
                assert got == reference_decide_combined_ctx(*pair, gamma, delta, mode=mode)

    def test_both_kinds_of_answer_are_covered(self):
        neg3, kimp = builtin("neg3"), builtin("kleene-imp")
        part = extend(neg3, neg3.sig.union(Signature.of({"m1": 0, "v_p": 1})))
        sig = part.sig.union(kimp.sig)
        answers = {
            decide_combined_ctx(part, kimp, parse_formula_list(left, sig), parse_formula_list(right, sig)).answer
            for left, right in self.QUERIES
        }
        assert answers == {"yes", "no"}


class TestAxioms:
    SQUIG = None

    def setup_method(self):
        b2n = builtin("bool2n")
        self.m = reduct(b2n, sub_sig(b2n, ["squig"]))
        self.sig = self.m.sig

    def pf(self, s):
        return parse_formula(s, self.sig)

    def axioms(self):
        return AxiomSet(
            "ks",
            (
                self.pf("squig(p, squig(q, p))"),
                self.pf(
                    "squig(squig(p, squig(q, r)), squig(squig(p, q), squig(p, r)))"
                ),
            ),
        )

    def test_instances_are_deduplicated_and_capped(self):
        u = subformula_closure([self.pf("squig(p, p)")])
        inst = axiom_instances(self.axioms().axioms, u)
        assert len(inst) == len(set(inst))
        with pytest.raises(ValueError):
            axiom_instances(self.axioms().axioms, u, cap=3)

    def test_cap_is_checked_before_a_schema_is_built(self, monkeypatch):
        built = []
        instantiate = combine.instantiate
        monkeypatch.setattr(
            combine,
            "instantiate",
            lambda schema, targets: built.append(targets) or instantiate(schema, targets),
        )
        u = subformula_closure([self.pf("squig(p, squig(q, r))")])
        assert len(u) == 5  # 25 instances of the first axiom, 125 of the second
        with pytest.raises(ValueError, match="more than 100 axiom instances"):
            axiom_instances(self.axioms().axioms, u, cap=100)
        assert len(built) == 25
        built.clear()
        second = self.axioms().axioms[1:]  # three variables: 2 ** 3 instances
        with pytest.raises(ValueError, match="more than 7 axiom instances"):
            axiom_instances(second, u[:2], cap=7)
        assert built == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(formulas(), max_size=3),
        st.lists(formulas(), max_size=6),
        st.integers(-1, 60),
    )
    def test_instances_equal_the_reference(self, axioms, universe, cap):
        try:
            want = reference_axiom_instances(axioms, universe, cap)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                axiom_instances(axioms, universe, cap)
        else:
            assert axiom_instances(axioms, universe, cap) == want

    def test_cap_counts_the_instances_of_all_axioms(self):
        # each axiom alone stays within the cap; together they pass it
        u = subformula_closure([self.pf("squig(p, p)")])
        first = self.axioms().axioms[:1]  # two variables: 2 ** 2 instances
        assert len(axiom_instances(first, u, cap=4)) == 4
        with pytest.raises(ValueError, match="^more than 4 axiom instances$"):
            axiom_instances(first + (self.pf("p"),), u, cap=4)

    def test_cap_error_answers_unknown(self):
        # 13 subformulas and a three-variable axiom: 13 ** 3 instances at depth 1
        m = builtin("bool2")
        k = AxiomSet("K3", (parse_formula("imp(p, imp(q, r))", m.sig),))
        a = parse_formula("neg(" * 12 + "p" + ")" * 12, m.sig)
        d = decide_with_axioms(m, k, [], a)
        assert (d.answer, d.depth_used, d.instances_used) == ("unknown", 1, 0)
        assert d.note == f"more than {combine.INSTANCE_CAP} axiom instances"

    def test_cap_check_counts_distinct_targets(self):
        u = subformula_closure([self.pf("squig(p, p)")])
        second = self.axioms().axioms[1:]  # three variables: 2 ** 3 instances
        assert len(axiom_instances(second, u)) == 8
        # a universe given with repeats still has 8 instances, not 6 ** 3
        assert axiom_instances(second, list(u) * 3, cap=8) == axiom_instances(second, u)

    def test_negative_cap_is_rejected(self):
        u = subformula_closure([self.pf("squig(p, p)")])
        with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
            axiom_instances(self.axioms().axioms, u, cap=-1)
        with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
            axiom_instances([], u, cap=-1)
        assert axiom_instances([], u, cap=0) == []

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_rejected_before_instantiating(self, monkeypatch, depth):
        monkeypatch.setattr(combine, "axiom_instances", None)  # instantiating would fail
        p = self.pf("p")
        with pytest.raises(ValueError, match=f"^max_depth must be at least 1, got {depth}$"):
            decide_with_axioms(self.m, self.axioms(), [p], p, max_depth=depth)

    def test_identity_derivable_with_axioms(self):
        d = decide_with_axioms(self.m, self.axioms(), [], self.pf("squig(p, p)"))
        assert d.answer == "yes"
        assert d.depth_used == 1

    def test_underivable_without_axioms(self):
        assert decide_multiple(self.m, [], [self.pf("squig(p, p)")]).answer == "no"

    def test_large_instance_closure_is_searched(self):
        # the depth-2 query closes over 2,564 formulas
        m = builtin("bool2")
        k = AxiomSet("K", (parse_formula("imp(p, imp(q, p))", m.sig),))
        gamma = [parse_formula("p", m.sig)]
        d = decide_with_axioms(m, k, gamma, parse_formula("and(p, neg(q))", m.sig))
        assert d.answer == "unknown"
        assert d.depth_used == 2
        assert d.instances_used == 1296

    def test_unknown_on_non_theorem(self):
        d = decide_with_axioms(self.m, self.axioms(), [], self.pf("p"), max_depth=1)
        assert d.answer == "unknown"
        assert d.note
