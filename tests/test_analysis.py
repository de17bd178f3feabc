import itertools

import pytest

from pnmatrix import (
    App,
    RefutationBounds,
    SaturationWitness,
    SeparatorBounds,
    Signature,
    Var,
    builtin,
    check_saturation_witness,
    decide_multiple,
    decide_single,
    find_separator,
    fixture_names,
    formula_key,
    formula_pool,
    formula_size,
    make_matrix,
    monadicity_report,
    parse_formula_list,
    possible_value_vector,
    print_formula,
    reduct,
    refute_saturation,
    restrict,
    split_advice,
    strict_product,
)

from hypothesis import given, settings, strategies as st

from corpus import total_nmatrices
from refuter_reference import reference_refute_saturation
from split_reference import reference_battery, reference_split_advice
from test_engine import small_matrices


def sub_sig(m, names):
    return Signature.of({c: m.sig.arity(c) for c in names})


class TestEnumeration:
    def test_size_order_and_cap(self):
        sig = Signature.of({"neg": 1})
        fs = formula_pool(sig, ("p",), max_depth=3, cap=5000)
        assert [print_formula(f) for f in fs] == [
            "p",
            "neg(p)",
            "neg(neg(p))",
            "neg(neg(neg(p)))",
        ]
        assert len(formula_pool(sig, ("p",), max_depth=3, cap=2)) == 2

    def test_pool_respects_variables_and_depth(self):
        sig = builtin("bool2").sig
        pool = formula_pool(sig, ("p", "q"), max_depth=1, cap=100)
        names = {print_formula(f) for f in pool}
        assert {"p", "q", "top", "neg(p)", "and(p, q)"} <= names
        assert "neg(neg(p))" not in names


def all_formulas(sig, variables, max_depth):
    """Every formula over the variables up to the depth, by brute force."""
    level = [Var(v) for v in variables] + [App(c, ()) for c, k in sig if k == 0]
    found = set(level)
    for _ in range(max_depth):
        pool = list(found)
        found |= {
            App(c, args) for c, k in sig if k > 0 for args in itertools.product(pool, repeat=k)
        }
    return found


class TestFormulaPool:
    @pytest.mark.parametrize("name", fixture_names())
    def test_prefix_of_the_sorted_enumeration(self, name):
        sig = builtin(name).sig
        cases = [(("p",), 0), (("p", "q"), 1), (("p", "q", "r"), 2)]
        if name in ("kleene-ks", "luk3", "neg3"):  # small enough to enumerate at depth 3
            cases.append((("p",), 3))
        for variables, depth in cases:
            everything = sorted(all_formulas(sig, variables, depth), key=formula_key)
            for cap in (1, 5, 24, 100, len(everything) + 1):
                assert formula_pool(sig, variables, depth, cap) == everything[:cap]

    def test_negative_bounds_are_rejected(self):
        sig = builtin("bool2").sig
        with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
            formula_pool(sig, ("p", "q"), 2, -1)
        with pytest.raises(ValueError, match="max_depth must be at least 0, got -1"):
            formula_pool(sig, ("p", "q"), -1, 5)
        assert formula_pool(sig, ("p", "q"), 2, 0) == []

    def test_cap_inside_one_size(self):
        sig = builtin("bool2").sig
        pool = formula_pool(sig, ("p", "q", "r"), 2, 6)
        # three variables and top, then two of the three size-2 negations
        assert [print_formula(f) for f in pool] == ["p", "q", "r", "top", "neg(p)", "neg(q)"]

    def test_no_leaves_build_nothing(self):
        # without a variable or a constant no formula exists at any depth;
        # walking the sizes of a depth-30 formula would not finish
        sig = Signature.of({"neg": 1, "and": 2})
        assert formula_pool(sig, (), 30, 24) == []
        r = refute_saturation(builtin("sources"), RefutationBounds(max_vars=0, max_depth=30))
        assert (r.refuted, r.theories_checked) == (False, 1)


def assert_strict_separators(m):
    """Every separator found takes only designated values at one of its
    two values and only undesignated ones at the other."""
    report = monadicity_report(m, bounds=SeparatorBounds(max_depth=2, max_candidates=200))
    for (x, y), f in report.pairs:
        if f is not None:
            vec = dict(zip(m.values, possible_value_vector(m, f)))
            kinds = {frozenset(z in m.designated for z in vec[v]) for v in (x, y)}
            assert kinds == {frozenset([True]), frozenset([False])}, (x, y, f)


class TestSeparators:
    def test_two_valued_matrix_separated_by_variable_alone(self):
        m = builtin("bool2")
        assert print_formula(find_separator(m, "0", "1")) == "p"

    def test_ks_pairs(self):
        table = monadicity_report(builtin("kleene-ks"))
        assert table.monadic
        assert print_formula(table.separator("b", "1")) == "neg(p)"
        assert print_formula(table.separator("0", "b")) == "p"

    @pytest.mark.parametrize("name", fixture_names())
    def test_first_and_last_values(self, name):
        m = builtin(name)
        x, y = m.values[0], m.values[-1]
        assert print_formula(find_separator(m, x, y)) == "p"
        table = monadicity_report(m)
        for a, b in itertools.permutations(sorted(table.usable), 2):
            assert find_separator(m, a, b) == table.separator(a, b), (a, b)

    def test_search_stops_at_the_first_separator(self, monkeypatch):
        import pnmatrix.analysis as analysis

        calls = []
        vector = analysis.possible_value_vector
        monkeypatch.setattr(
            analysis, "possible_value_vector", lambda m, f: calls.append(f) or vector(m, f)
        )
        assert print_formula(find_separator(builtin("sources"), "f", "t")) == "p"
        assert [print_formula(f) for f in calls] == ["p"]

    @pytest.fixture
    def vectors_computed(self, monkeypatch):
        import pnmatrix.analysis as analysis

        calls = []
        vector = analysis.possible_value_vector
        monkeypatch.setattr(
            analysis, "possible_value_vector", lambda m, f: calls.append(f) or vector(m, f)
        )
        return calls

    def test_table_stops_once_every_pair_is_separated(self, vectors_computed):
        table = monadicity_report(builtin("sources"))
        assert table.monadic
        assert [print_formula(f) for f in vectors_computed] == ["p", "neg(p)"]

    def test_table_without_pairs_computes_no_vector(self, vectors_computed):
        bool2, kleene = builtin("bool2"), builtin("kleene-imp")
        for m, usable in ((restrict(bool2, ["1"]), set()), (restrict(kleene, ["0", "h"]), {"h"})):
            table = monadicity_report(m)
            assert table.usable == usable
            assert table.pairs == () and table.monadic
        assert vectors_computed == []

    def test_unknown_values_are_rejected_before_any_search(self, vectors_computed):
        for x, y, unknown in (("0", "7", "7"), ("7", "1", "7"), ("x", "x", "x")):
            with pytest.raises(ValueError, match=f"unknown value '{unknown}'"):
                find_separator(builtin("bool2"), x, y)
        assert vectors_computed == []

    def test_a_value_is_not_separated_from_itself(self, vectors_computed):
        for name in ("bool2", "sources"):
            m = builtin(name)
            for x in m.values:
                with pytest.raises(ValueError, match=f"cannot separate value '{x}' from itself"):
                    find_separator(m, x, x)
        assert vectors_computed == []

    @pytest.mark.parametrize("field", ["max_depth", "max_candidates"])
    def test_negative_bounds_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 0, got -1"):
            SeparatorBounds(**{field: -1})

    def test_zero_bounds(self):
        bool2 = builtin("bool2")
        assert find_separator(bool2, "0", "1", SeparatorBounds(max_depth=0)) == Var("p")
        assert find_separator(bool2, "0", "1", SeparatorBounds(max_candidates=0)) is None

    def test_depth_bound_matters(self):
        luk = builtin("luk3")
        imp_only = reduct(luk, sub_sig(luk, ["imp"]))
        assert find_separator(imp_only, "0", "h", SeparatorBounds(max_depth=4)) is None
        # with the possibility operator available the pair separates at depth 1
        assert print_formula(find_separator(luk, "0", "h")) == "nabla(p)"


    def test_a_nullary_connective_is_only_a_leaf(self):
        # k is a candidate at depth 0 and an argument of u at depth 1, and
        # is never applied to the generators itself
        sig = Signature.of({"k": 0, "u": 1})
        u = {("a",): {"c"}, ("b",): {"a"}, ("c",): {"b"}}
        m = make_matrix(sig, ["a", "b", "c"], ["a"], {"k": {(): {"a"}}, "u": u})
        report = monadicity_report(m, bounds=SeparatorBounds(max_depth=1))
        assert [(pair, print_formula(f)) for pair, f in report.pairs] == [
            (("a", "b"), "p"), (("a", "c"), "p"), (("b", "c"), "u(p)"),
        ]

    def test_an_unknown_pair_has_no_row(self):
        table = monadicity_report(builtin("bool2"))
        assert print_formula(table.separator("1", "0")) == "p"
        with pytest.raises(KeyError) as e:
            table.separator("0", "7")
        assert e.value.args == (("0", "7"),)

    def test_a_set_with_both_kinds_separates_nothing(self):
        # D = {a, b}; with p = a, u(p) may take a designated value or c
        sig = Signature.of({"u": 1})
        u = {("a",): {"a", "b", "c"}, ("b",): {"a", "b"}, ("c",): {"c"}}
        m = make_matrix(sig, ["a", "b", "c"], ["a", "b"], {"u": u})
        assert find_separator(m, "a", "b") is None
        report = monadicity_report(m)
        assert not report.monadic
        assert [pair for pair, f in report.pairs if f is None] == [("a", "b")]

    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_separators_are_strict(self, m):
        assert_strict_separators(m)

    def test_separators_of_total_nmatrices_are_strict(self):
        sig = Signature.of({"u": 1, "b": 2})
        for m in total_nmatrices("strict separators", sig, ["a", "b", "c"], 60):
            assert_strict_separators(m)


class TestRefuter:
    @pytest.mark.parametrize("name, refuted, checked, witness", [
        ("bool2", True, 1, "- |- p, neg(p)"),
        ("bool2n", True, 37, "pl(botop, p) |- botop, p"),
        ("kleene-imp", True, 8, "imp(p, p) |- p, imp(p, q)"),
        ("kleene-ks", True, 23, "p, neg(p) |- q, neg(q)"),
        ("luk-imp", True, 1, "- |- imp(p, q), imp(q, p)"),
        ("luk3", True, 1, "- |- p, nabla(neg(p))"),
        ("neg3", False, 46, None),
        ("sources", False, 301, None),
    ])
    def test_pinned_results(self, name, refuted, checked, witness):
        # the bases' order and the first witness are part of the contract
        r = refute_saturation(builtin(name))
        assert (r.refuted, r.theories_checked) == (refuted, checked)
        assert (r.witness.pretty() if r.witness else None) == witness

    def test_found_witnesses_are_valid(self):
        for name in ("bool2n", "kleene-imp", "luk-imp", "kleene-ks"):
            m = builtin(name)
            r = refute_saturation(m)
            assert r.refuted, name
            assert check_saturation_witness(m, r.witness) == [], name

    def test_saturated_fixtures_survive(self):
        for name in ("neg3", "sources"):
            r = refute_saturation(builtin(name))
            assert not r.refuted
            assert r.witness is None

    @pytest.mark.parametrize(
        "field", ["max_vars", "max_depth", "max_pool", "max_premises", "max_phi"]
    )
    def test_negative_bounds_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 0, got -1"):
            RefutationBounds(**{field: -1})
        r = refute_saturation(builtin("bool2"), RefutationBounds(**{field: 0}))
        assert r.bounds == RefutationBounds(**{field: 0})

    def test_more_variables_than_the_pool_has_are_rejected(self):
        with pytest.raises(ValueError, match="max_vars must be at most 5, got 7"):
            RefutationBounds(max_vars=7)
        five = RefutationBounds(max_vars=5, max_depth=0)
        assert refute_saturation(builtin("neg3"), five).bounds == five

    def test_bounds_are_honored(self):
        tight = RefutationBounds(max_pool=3, max_premises=1, max_phi=1)
        r = refute_saturation(builtin("kleene-imp"), tight)
        assert not r.refuted  # the witness needs two conclusions
        assert r.bounds == tight


class TestWitnessCheck:
    """Each rejection of ``check_saturation_witness``, with its message."""

    @pytest.mark.parametrize("gamma0, phi, problems", [
        ("and(p, neg(p))", "-", ["witness needs a non-empty right-hand side"]),
        ("-", "p, q", ["gamma0 does not entail phi collectively"]),
        ("-", "p, neg(p), imp(p, p)", ["imp(p, p) already follows singly from gamma0"]),
    ], ids=["empty-phi", "collective", "single"])
    def test_rejections(self, gamma0, phi, problems):
        m = builtin("bool2")
        w = SaturationWitness(parse_formula_list(gamma0, m.sig), parse_formula_list(phi, m.sig))
        assert check_saturation_witness(m, w) == problems

    def test_an_empty_side_prints_as_a_dash(self):
        assert SaturationWitness((), ()).pretty() == "- |- -"


class TestRefuterReference:
    """refute_saturation against the per-formula sweep of
    ``refuter_reference``, one search per pool formula and base."""

    @pytest.mark.parametrize("bounds", [
        RefutationBounds(),
        RefutationBounds(max_premises=3),
        RefutationBounds(max_pool=6),
        RefutationBounds(max_pool=12),
        RefutationBounds(max_vars=1),
        RefutationBounds(max_depth=1),
    ], ids=["default", "premises3", "pool6", "pool12", "vars1", "depth1"])
    @pytest.mark.parametrize("name", fixture_names())
    def test_matches_the_per_formula_sweep(self, name, bounds):
        m = builtin(name)
        assert refute_saturation(m, bounds) == reference_refute_saturation(m, bounds)

    def test_single_searches_on_sources(self, monkeypatch):
        """The sweeps of ``sources`` ask 320 single-conclusion searches and
        78 collective ones; one per pool formula outside each base, and one
        collective check per base, would be 6,648 and 301."""
        import pnmatrix.engine as engine

        sizes = []
        search = engine.PremiseContext._search

        def counted(self, delta):
            delta = tuple(delta)
            sizes.append(len(delta))
            return search(self, delta)

        monkeypatch.setattr(engine.PremiseContext, "_search", counted)
        r = refute_saturation(builtin("sources"))
        assert (r.refuted, r.theories_checked) == (False, 301)
        assert (sizes.count(1), len(sizes) - sizes.count(1)) == (320, 78)


def counted_searches(monkeypatch):
    """Every ``PremiseContext`` search asked from now on, in order: its
    conclusions, and whether the premises entail them."""
    import pnmatrix.engine as engine

    asked = []
    search = engine.PremiseContext._search

    def counted(self, delta):
        delta = tuple(delta)
        out = search(self, delta)
        asked.append((delta, out[1] is None))
        return out

    monkeypatch.setattr(engine.PremiseContext, "_search", counted)
    return asked


class TestRefuterSearches:
    """How many searches the refuter asks.  Its witness loop starts at two
    conclusions and skips each set a kept countermodel refutes, so on every
    refuted fixture it asks one search, the witness's."""

    @pytest.mark.parametrize("name, singles, others", [
        ("bool2", 6, 2),
        ("bool2n", 60, 2),
        ("kleene-imp", 40, 6),
        ("kleene-ks", 150, 9),
        ("luk-imp", 7, 2),
        ("luk3", 10, 2),
        ("neg3", 61, 7),
        ("sources", 320, 78),
    ])
    def test_searches_per_fixture(self, monkeypatch, name, singles, others):
        asked = counted_searches(monkeypatch)
        r = refute_saturation(builtin(name))
        sizes = [len(delta) for delta, _ in asked]
        assert (sizes.count(1), len(sizes) - sizes.count(1)) == (singles, others)
        if r.refuted:
            # the last base's collective check is the last "yes" but one;
            # after it comes the witness loop
            yes = [i for i, (_, entailed) in enumerate(asked) if entailed]
            assert asked[yes[-2] + 1:] == [(r.witness.phi, True)]


class TestRefuterOnTotalNmatrices:
    """refute_saturation against ``refuter_reference`` on seeded total
    Nmatrices, where the witness loop runs often: most of them are
    refuted once two conclusions are allowed, some only with three."""

    @pytest.mark.parametrize("max_phi", [1, 2, 3])
    def test_matches_the_per_formula_sweep(self, max_phi):
        sig = Signature.of({"u": 1, "b": 2})
        bounds = RefutationBounds(max_pool=12, max_phi=max_phi)
        witnesses = []
        for m in total_nmatrices("refuter witnesses", sig, ["a", "b", "c"], 60):
            r = refute_saturation(m, bounds)
            assert r == reference_refute_saturation(m, bounds)
            if r.refuted:
                witnesses.append(len(r.witness.phi))
        assert max(witnesses, default=1) == max_phi  # some witness needs every conclusion allowed


def sorted_bases(pool, most):
    """Every combination of at most ``most`` pool formulas, built in full
    and sorted by size sum and then by sorted texts."""
    bases = [g for k in range(most + 1) for g in itertools.combinations(pool, k)]
    return sorted(
        bases,
        key=lambda g: (sum(formula_size(f) for f in g), sorted(print_formula(f) for f in g)),
    )


class TestSizeSumGeneration:
    """The refuter's bases and the split battery's pairs, made one size sum
    at a time, equal the full lists sorted."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_bases_equal_the_sorted_list(self, name):
        from pnmatrix.analysis import _bases

        sig = builtin(name).sig
        for variables, depth in itertools.product((("p",), ("p", "q"), ("p", "q", "r")), range(4)):
            full = formula_pool(sig, variables, depth, cap=60)
            for cap, most in itertools.product((0, 1, 5, 24, 60), range(4)):
                if cap == 60 and most == 3:
                    continue  # 34,220 bases of three: the sort alone takes seconds
                pool = full[:cap]
                assert list(_bases(pool, most)) == sorted_bases(pool, most), (variables, depth, cap)

    @pytest.mark.parametrize("samples", [0, 1, 37, 200, 5000])
    @pytest.mark.parametrize("name", fixture_names())
    def test_battery_equals_the_sorted_pairs(self, name, samples):
        from pnmatrix.analysis import _battery

        m = builtin(name)
        for sig1, sig2 in single_connective_splits(m):
            union = sig1.union(sig2)
            forms = formula_pool(union, ("p",), max_depth=2, cap=5000)
            assert _battery(forms, samples) == reference_battery(union, samples), union


class TestRefuterOnRandomMatrices:
    """refute_saturation against ``refuter_reference`` on random partial
    Nmatrices, under small bounds."""

    @settings(max_examples=200, deadline=None)
    @given(
        small_matrices(),
        st.integers(1, 2),
        st.integers(0, 14),
        st.integers(0, 3),
        st.integers(1, 3),
    )
    def test_matches_the_per_formula_sweep(self, m, max_vars, max_pool, max_premises, max_phi):
        bounds = RefutationBounds(
            max_vars=max_vars, max_pool=max_pool, max_premises=max_premises, max_phi=max_phi
        )
        assert refute_saturation(m, bounds) == reference_refute_saturation(m, bounds)


class TestSplitAdvice:
    def test_shared_negation_split_is_safe(self):
        ks = builtin("kleene-ks")
        sv = split_advice(ks, sub_sig(ks, ["and", "neg"]), sub_sig(ks, ["or", "neg"]))
        assert sv.verdict == "split-safe-multiple"
        assert sv.separators.monadic and sv.saturation.refuted

    def test_divergences_mean_matrix_yes_product_no(self):
        luk = builtin("luk3")
        sv = split_advice(luk, sub_sig(luk, ["neg", "imp"]), sub_sig(luk, ["nabla"]))
        assert sv.verdict == "unsafe-evidence"
        for d in sv.divergences:
            assert d.matrix_verdict.answer == "yes"
            assert d.product_verdict.answer == "no"
            assert d.product_verdict.countermodel is not None

    def test_saturated_and_monadic_allows_single_split(self):
        s = builtin("sources")
        sv = split_advice(s, sub_sig(s, ["and", "neg"]), sub_sig(s, ["or", "neg"]))
        assert sv.verdict == "split-safe-single-conditional"
        assert sv.divergences == ()

    def test_divergence_queries_really_differ(self):
        luk = builtin("luk3")
        sv = split_advice(luk, sub_sig(luk, ["neg", "imp"]), sub_sig(luk, ["nabla"]))
        d = sv.divergences[0]
        assert decide_multiple(luk, [d.premise], [d.conclusion]).answer == "yes"

    def test_negative_samples_are_rejected(self):
        luk = builtin("luk3")
        first, second = sub_sig(luk, ["neg", "imp"]), sub_sig(luk, ["nabla", "imp"])
        with pytest.raises(ValueError, match="samples"):
            split_advice(luk, first, second, samples=-1)
        assert split_advice(luk, first, second, samples=0).samples_run == 0


class TestSplitSignatures:
    @pytest.mark.parametrize("second", [{"and": 2}, {"neg": 2}], ids=["unknown", "arity"])
    def test_signatures_outside_the_matrix_are_rejected(self, second):
        luk = builtin("luk3")
        with pytest.raises(
            ValueError, match="^split signatures must cover a subsignature of the matrix$"
        ):
            split_advice(luk, sub_sig(luk, ["imp"]), Signature.of(second))


def single_connective_splits(m):
    """Every pair of one-connective subsignatures of m, a connective with
    itself included."""
    names = [c for c, _ in m.sig]
    return [
        (sub_sig(m, [c1]), sub_sig(m, [c2]))
        for c1, c2 in itertools.combinations_with_replacement(names, 2)
    ]


def assert_product_is_weaker(m, sig1, sig2, samples=200):
    """Every battery pair the product of the reducts entails, m entails."""
    product = strict_product(reduct(m, sig1), reduct(m, sig2))
    for a, b in reference_battery(sig1.union(sig2), samples):
        if decide_single(product, [a], b).answer == "yes":
            assert decide_single(m, [a], b).answer == "yes", (a, b)


BENCHMARK_SPLITS = [  # those of scripts/split_advisor.py
    ("luk3", ["neg", "imp"], ["nabla"]),
    ("luk3", ["neg", "imp"], ["nabla", "imp"]),
    ("kleene-ks", ["and", "neg"], ["or", "neg"]),
]
SAMPLES = [0, 1, 37, 200]


class TestSplitReference:
    """split_advice against ``split_reference``, which asks the matrix and
    the product every battery pair, one premise at a time."""

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("name, first, second", BENCHMARK_SPLITS)
    def test_benchmark_splits(self, name, first, second, samples):
        m = builtin(name)
        sig1, sig2 = sub_sig(m, first), sub_sig(m, second)
        assert split_advice(m, sig1, sig2, samples) == reference_split_advice(m, sig1, sig2, samples)

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("name", fixture_names())
    def test_single_connective_splits(self, name, samples):
        m = builtin(name)
        for sig1, sig2 in single_connective_splits(m):
            expected = reference_split_advice(m, sig1, sig2, samples)
            assert split_advice(m, sig1, sig2, samples) == expected, (sig1, sig2)

    def test_total_nmatrices(self):
        sig = Signature.of({"u": 1, "b": 2})
        splits = [(["u"], ["b"]), (["u", "b"], ["b"])]
        for m in total_nmatrices("split advice", sig, ["a", "b", "c"], 12):
            for first, second in splits:
                sig1, sig2 = sub_sig(m, first), sub_sig(m, second)
                assert split_advice(m, sig1, sig2) == reference_split_advice(m, sig1, sig2)

    @settings(max_examples=40, deadline=None)
    @given(
        small_matrices(),
        st.sets(st.sampled_from(["c", "neg", "imp"])),
        st.sets(st.sampled_from(["c", "neg", "imp"])),
        st.sampled_from(SAMPLES),
    )
    def test_small_matrices(self, m, first, second, samples):
        sig1, sig2 = sub_sig(m, first), sub_sig(m, second)
        assert split_advice(m, sig1, sig2, samples) == reference_split_advice(m, sig1, sig2, samples)

    @pytest.mark.parametrize("name", fixture_names())
    def test_the_product_is_weaker_on_fixtures(self, name):
        m = builtin(name)
        for sig1, sig2 in single_connective_splits(m):
            assert_product_is_weaker(m, sig1, sig2)

    @settings(max_examples=40, deadline=None)
    @given(
        small_matrices(),
        st.sets(st.sampled_from(["c", "neg", "imp"])),
        st.sets(st.sampled_from(["c", "neg", "imp"])),
    )
    def test_the_product_is_weaker_on_small_matrices(self, m, first, second):
        assert_product_is_weaker(m, sub_sig(m, first), sub_sig(m, second), samples=60)

    @pytest.mark.parametrize("split, searches", [
        (BENCHMARK_SPLITS[0], 124),
        (BENCHMARK_SPLITS[1], 101),
        (BENCHMARK_SPLITS[2], 120),
    ], ids=["luk3-nabla", "luk3-nabla-imp", "kleene-ks"])
    def test_battery_searches(self, monkeypatch, split, searches):
        """The battery asks 124, 101 and 120 searches on the benchmark
        splits, those deciding the divergences included; one search per
        pair and side, as the reference asks, would be 400 each."""
        import pnmatrix.analysis as analysis
        import pnmatrix.engine as engine

        name, first, second = split
        m = builtin(name)
        saturation = refute_saturation(m)  # answered before the count starts
        monkeypatch.setattr(analysis, "refute_saturation", lambda m: saturation)
        asked = []
        search = engine.PremiseContext._search

        def counted(self, delta):
            asked.append(delta)
            return search(self, delta)

        monkeypatch.setattr(engine.PremiseContext, "_search", counted)
        sv = split_advice(m, sub_sig(m, first), sub_sig(m, second))
        assert sv.samples_run == 200
        assert len(asked) == searches
