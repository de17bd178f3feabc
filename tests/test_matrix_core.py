import collections
import copy
import hashlib
import itertools
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pnmatrix import (
    MatrixError,
    PNMatrix,
    Signature,
    ValueMap,
    builtin,
    check_strict_hom,
    classify,
    decide_multiple,
    extend,
    fixture_names,
    format_matrix,
    inclusion,
    make_matrix,
    parse_formula,
    power,
    projection,
    prune,
    read_matrix,
    reduct,
    rename_connectives,
    restrict,
    strict_product,
    sum_matrices,
    validate,
    viable_components,
)
from pnmatrix import combine_single_power, matrix_core
from pnmatrix.matrix_core import strict_product_is_total

from corpus import random_query, seeded
from oracle import brute_viable_sets


def sub_sig(m, names):
    return Signature.of({c: m.sig.arity(c) for c in names})


class TestValidation:
    def test_missing_entry_reported(self):
        sig = Signature.of({"neg": 1})
        with pytest.raises(MatrixError, match="missing entry"):
            make_matrix(sig, ["0", "1"], ["1"], {"neg": {("0",): {"1"}}})

    def test_unknown_output_reported(self):
        sig = Signature.of({"neg": 1})
        with pytest.raises(MatrixError, match="unknown values"):
            make_matrix(
                sig, ["0", "1"], ["1"], {"neg": {("0",): {"2"}, ("1",): {"0"}}}
            )

    def test_validate_lists_all_defects(self):
        sig = Signature.of({"neg": 1, "and": 2})
        m = make_matrix(
            sig,
            ["0", "1"],
            ["1"],
            {
                "neg": {("0",): {"1"}, ("1",): {"0"}},
                "and": {t: {"0"} for t in [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]},
            },
        )
        assert validate(m) == []

    @pytest.mark.parametrize("values, designated, tables, message", [
        (["0", "0"], ["0"], {"neg": {("0",): {"0"}}}, "duplicate value names"),
        (["0", "1"], ["2"], {"neg": {("0",): {"1"}, ("1",): {"0"}}},
         "designated values ['2'] not in value set"),
        (["0", "1"], ["1"], {}, "missing tables for ['neg']"),
        (["0"], ["0"], {"neg": {("0",): {"0"}}, "or": {}}, "tables for undeclared connectives ['or']"),
        (["0"], ["0"], {"neg": {("0",): {"0"}, ("0", "0"): {"0"}}}, "unexpected entry neg('0', '0')"),
    ], ids=["duplicate-values", "designated", "missing-table", "extra-table", "unexpected-entry"])
    def test_rejections(self, values, designated, tables, message):
        m = PNMatrix(Signature.of({"neg": 1}), tuple(values), frozenset(designated), tables)
        assert validate(m) == [message]
        with pytest.raises(MatrixError) as e:
            make_matrix(m.sig, values, designated, tables)
        assert str(e.value) == message

    def test_negative_arity_reported(self):
        with pytest.raises(ValueError, match="^connective 'x' has negative arity -1$"):
            Signature.of({"x": -1})

    def test_extend_reports_a_negative_arity(self):
        # no signature with a negative arity can be made, so extend never sees one
        with pytest.raises(ValueError, match="^connective 'x' has negative arity -1$"):
            builtin("bool2").sig.union(Signature.of({"x": -1}))

    def test_empty_carrier_is_legal(self):
        m = make_matrix(Signature.of({"neg": 1}), [], [], {"neg": {}})
        assert viable_components(m).maximal == ()
        f = parse_formula("neg(p)", m.sig)
        assert decide_multiple(m, [f], []).answer == "yes"


class TestClassification:
    def test_fixture_kinds(self):
        expected = {
            "bool2": "matrix",
            "bool2n": "Nmatrix",
            "sources": "Nmatrix",
            "kleene-ks": "Pmatrix",
            "kleene-imp": "matrix",
            "luk-imp": "matrix",
            "luk3": "matrix",
            "neg3": "matrix",
        }
        for name, kind in expected.items():
            assert classify(builtin(name)) == kind, name

    def test_partial_and_nondeterministic(self):
        m = make_matrix(Signature.of({"neg": 1}), ["0", "1"], ["1"], {"neg": {("0",): [], ("1",): ["0", "1"]}})
        assert classify(m) == "PNmatrix"


@st.composite
def random_pnmatrices(draw, max_values=7):
    """0 to max_values values; entries may be empty (partial) or hold several values.
    A cell is drawn as one bitmask over the values, which is much cheaper
    to draw than a set of them."""
    values = [f"v{i}" for i in range(draw(st.integers(0, max_values)))]
    cells = st.integers(0, (1 << len(values)) - 1).map(
        lambda mask: {v for i, v in enumerate(values) if mask >> i & 1}
    )
    sig = draw(st.sampled_from([{"c": 0, "neg": 1, "imp": 2}, {"neg": 1, "imp": 2}, {"imp": 2}]))
    tables = {
        name: {tup: draw(cells) for tup in itertools.product(values, repeat=k)}
        for name, k in sig.items()
    }
    return make_matrix(Signature.of(sig), values, draw(cells), tables)


class TestCompiledTables:
    @settings(max_examples=100, deadline=None)
    @given(random_pnmatrices())
    @example(make_matrix(Signature.of({"c": 0, "neg": 1, "imp": 2}), [], [],
                         {"c": {(): set()}, "neg": {}, "imp": {}}))
    def test_nested_entries_are_the_entry_masks(self, m):
        """The compiled table of a k-ary connective nests k levels of rows,
        one entry per value at each; indexed by an argument tuple, it gives
        the mask of that tuple's entry."""
        n = len(m.values)
        for c, k in m.sig:
            for t in itertools.product(range(n), repeat=k):
                entry = m.compiled.tables[c]
                for x in t:
                    assert len(entry) == n
                    entry = entry[x]
                names = m.entry(c, tuple(m.values[x] for x in t))
                assert entry == sum(1 << m.values.index(v) for v in names)
            if k and not n:
                assert m.compiled.tables[c] == []


class TestViability:
    def test_matches_brute_force_on_all_fixtures(self):
        for name in ("bool2", "bool2n", "sources", "kleene-ks", "kleene-imp", "luk-imp", "luk3", "neg3"):
            m = builtin(name)
            got = [set(w) for w in viable_components(m).maximal]
            assert got == brute_viable_sets(m), name

    def test_kleene_ks_components(self):
        rep = viable_components(builtin("kleene-ks"))
        assert [sorted(w) for w in rep.maximal] == [["0", "1", "a"], ["0", "1", "b"]]
        assert rep.spurious == frozenset()

    def test_product_spurious_values_and_pruning(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        rep = viable_components(p)
        assert rep.spurious == {"h|0", "h|h"}
        pruned = prune(p)
        assert set(pruned.values) == {"0|0", "0|h", "1|1"}
        assert brute_viable_sets(p) == [set(w) for w in rep.maximal]

    def test_largest_cases_of_the_subset_scan(self):
        """Components of the 16-value matrices, as the exhaustive scan gave them."""
        ks, sources = builtin("kleene-ks"), builtin("sources")
        rep = viable_components(power(ks, 2))
        assert [" ".join(sorted(w)) for w in rep.maximal] == [
            "0&0 0&1 0&a 1&0 1&1 1&a a&0 a&1 a&a",
            "0&0 0&1 0&a 1&0 1&1 1&a b&0 b&1 b&a",
            "0&0 0&1 0&b 1&0 1&1 1&b a&0 a&1 a&b",
            "0&0 0&1 0&b 1&0 1&1 1&b b&0 b&1 b&b",
        ]
        assert rep.spurious == frozenset()
        rep = viable_components(sum_matrices([sources, ks, sources, ks]))
        assert [" ".join(sorted(w)) for w in rep.maximal] == [
            "0.b 0.f 0.n 0.t",
            "2.b 2.f 2.n 2.t",
            "1.0 1.1 1.a",
            "1.0 1.1 1.b",
            "3.0 3.1 3.a",
            "3.0 3.1 3.b",
        ]
        assert rep.spurious == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(random_pnmatrices())
    def test_matches_brute_force_on_random_matrices(self, m):
        rep = viable_components(m)
        brute = brute_viable_sets(m)
        assert len(rep.maximal) == len(brute)
        assert set(rep.maximal) == {frozenset(w) for w in brute}
        assert list(rep.maximal) == sorted(rep.maximal, key=lambda w: (-len(w), sorted(w)))
        assert rep.usable == frozenset().union(*brute)
        assert rep.spurious == frozenset(m.values) - rep.usable

    def test_prune_preserves_decisions(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        pruned = prune(p)
        rng = seeded("prune-preserves")
        for _ in range(60):
            gamma, delta = random_query(rng, p.sig, closure_cap=8)
            assert (
                decide_multiple(p, gamma, delta).answer
                == decide_multiple(pruned, gamma, delta).answer
            )


class TestCombinators:
    def test_reduct_and_extend_are_inverse_on_tables(self):
        m = builtin("kleene-ks")
        r = reduct(m, sub_sig(m, ["neg"]))
        assert set(r.tables) == {"neg"}
        back = extend(r, m.sig)
        full = frozenset(m.values)
        assert all(out == full for out in back.tables["and"].values())

    def test_product_arity_clash(self):
        a = make_matrix(
            Signature.of({"f": 1}), ["0", "1"], ["1"],
            {"f": {("0",): {"0"}, ("1",): {"1"}}},
        )
        b = make_matrix(
            Signature.of({"f": 2}), ["0", "1"], ["1"],
            {"f": {t: {"0"} for t in [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]}},
        )
        with pytest.raises(ValueError):
            strict_product(a, b)

    def test_sum_requires_identical_signatures(self):
        with pytest.raises(MatrixError):
            sum_matrices([builtin("neg3"), builtin("bool2")])

    def test_signature_and_size_errors(self):
        neg3, bool2 = builtin("neg3"), builtin("bool2")
        with pytest.raises(MatrixError, match="^reduct target is not a subsignature$"):
            reduct(neg3, bool2.sig)
        with pytest.raises(
            MatrixError, match="^extension target does not contain the matrix signature$"
        ):
            extend(bool2, neg3.sig)
        with pytest.raises(MatrixError, match="^sum of zero matrices$"):
            sum_matrices([])
        # the bound is checked on the value and cell counts, before any part is made
        message = ("sum needs more than 2097152 values, table cells and entry members"
                   " (at least 4098 values and 50384911 table cells)")
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            sum_matrices([bool2] * 2049)

    def test_sum_tags_and_blocks_cross_terms(self):
        m = builtin("neg3")
        s = sum_matrices([m, m])
        assert set(s.values) == {f"{i}.{v}" for i in (0, 1) for v in m.values}
        assert s.entry("neg", ("0.h",)) == {"0.h"}
        # no cross-copy outputs exist anywhere
        for tup, out in s.tables["neg"].items():
            tags = {v.split(".", 1)[0] for v in tup}
            assert all(v.split(".", 1)[0] in tags for v in out)

    def test_sum_of_restrictions_agrees_with_ks(self):
        ks = builtin("kleene-ks")
        parts = [restrict(ks, w) for w in viable_components(ks).maximal]
        summed = sum_matrices(parts)
        rng = seeded("sum-vs-ks")
        for _ in range(60):
            gamma, delta = random_query(rng, ks.sig, closure_cap=7)
            assert (
                decide_multiple(summed, gamma, delta).answer
                == decide_multiple(ks, gamma, delta).answer
            )

    def test_rename_rejects_a_clash(self):
        m = builtin("bool2")
        for renaming in ({"imp": "and"}, {"imp": "neg"}):
            with pytest.raises(MatrixError, match="same name"):
                rename_connectives(m, renaming)

    def test_rename_swaps_connectives(self):
        m = builtin("bool2")
        swapped = rename_connectives(m, {"and": "or", "or": "and"})
        assert swapped.sig == m.sig
        assert swapped.tables["or"] == m.tables["and"]
        assert swapped.tables["and"] == m.tables["or"]

    def test_power_designation_and_size(self):
        m = builtin("bool2")
        p = power(m, 2)
        assert len(p.values) == 4
        assert p.designated == {"1&1"}
        assert p.entry("and", ("1&0", "0&1")) == {"0&0"}

    def test_power_cap(self):
        with pytest.raises(MatrixError):
            power(builtin("sources"), 7)


class TestStrictHoms:
    def test_projections_are_strict_homs(self):
        m1, m2 = builtin("kleene-imp"), builtin("luk-imp")
        p = strict_product(m1, m2)
        assert check_strict_hom(projection(p, 1), p, m1) is None
        assert check_strict_hom(projection(p, 2), p, m2) is None

    def test_inclusions_into_sums(self):
        m = builtin("neg3")
        s = sum_matrices([m, m])
        inc = inclusion(s, 1)
        assert check_strict_hom(inc, m, s) is None

    def test_violation_is_reported(self):
        m = builtin("bool2")
        bad = ValueMap.of({"0": "1", "1": "1"})
        assert "strictness" in check_strict_hom(bad, m, m)

    @pytest.mark.parametrize("source, target, mapping, message", [
        ("neg3", "bool2", {"0": "0", "h": "0", "1": "1"},
         "target signature is not a subsignature of the source"),
        ("bool2", "bool2", {"0": "0"}, "map not total: missing '1'"),
        ("bool2", "bool2", {"0": "0", "1": "x"}, "value '1' maps to unknown value 'x'"),
        ("bool2", "bool2", {"0": "1", "1": "1"}, "strictness violated at '0' -> '1'"),
        ("kleene-ks", "kleene-ks", {"0": "0", "a": "a", "b": "1", "1": "b"},
         "and('a', '1'): image ['a'] not within []"),
    ], ids=["signature", "total", "target", "strict", "structure"])
    def test_rejections(self, source, target, mapping, message):
        h = ValueMap.of(mapping)
        assert check_strict_hom(h, builtin(source), builtin(target)) == message

    def test_value_map_is_a_value_object(self):
        h = ValueMap.of({"b": "0", "a": "1"})
        assert h.mapping == (("a", "1"), ("b", "0"))
        assert [h("a"), h("b")] == ["1", "0"]
        with pytest.raises(KeyError):
            h("c")
        twin = pickle.loads(pickle.dumps(h))
        assert twin == h and hash(twin) == hash(h) and twin("b") == "0"
        assert h != ValueMap.of({"a": "1", "b": "1"})

    def test_projections_of_nested_products(self):
        k, l = builtin("kleene-imp"), builtin("luk-imp")
        kl = strict_product(k, l)
        for left, right in ((kl, k), (k, kl)):
            p = strict_product(left, right)
            assert check_strict_hom(projection(p, 1), p, left) is None
            assert check_strict_hom(projection(p, 2), p, right) is None

    def test_derived_matrices_keep_the_parts(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        bigger = p.sig.union(Signature.of({"neg": 1}))
        for q in (reduct(p, p.sig), extend(p, bigger), rename_connectives(p, {"imp": "to"})):
            assert projection(q, 1) == projection(p, 1)
            assert projection(q, 2) == projection(p, 2)

    def test_inclusion_of_an_empty_summand(self):
        neg3 = builtin("neg3")
        empty = make_matrix(neg3.sig, [], [], {"neg": {}})
        s = sum_matrices([neg3, empty])
        assert inclusion(s, 1) == ValueMap.of({})
        assert check_strict_hom(inclusion(s, 1), empty, s) is None
        bigger = s.sig.union(Signature.of({"box": 1}))
        derived = (reduct(s, s.sig), extend(s, bigger), rename_connectives(s, {"neg": "not"}),
                   restrict(s, s.values), restrict(s, s.values[:1]))
        for q in derived:
            assert inclusion(q, 1) == ValueMap.of({})
            with pytest.raises(MatrixError, match="no summand 2"):
                inclusion(q, 2)
        with pytest.raises(MatrixError, match="no summand 0"):
            inclusion(strict_product(neg3, neg3), 0)

    def test_matrix_from_a_file_has_no_structure(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        s = sum_matrices([builtin("neg3"), builtin("neg3")])
        with pytest.raises(MatrixError, match="no value structure"):
            projection(read_matrix(format_matrix(p)), 1)
        with pytest.raises(MatrixError, match="no value structure"):
            inclusion(read_matrix(format_matrix(s)), 0)

    def test_bad_side_or_index(self):
        p = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        for side in (0, 3):
            with pytest.raises(MatrixError, match="sides 1 and 2"):
                projection(p, side)
        with pytest.raises(MatrixError, match="summand 5"):
            inclusion(sum_matrices([builtin("neg3"), builtin("neg3")]), 5)

    def test_colliding_names_rejected(self):
        sig = Signature.of({"neg": 1})
        a = make_matrix(sig, ["a|b", "a"], [], {"neg": {("a|b",): {"a"}, ("a",): {"a"}}})
        b = make_matrix(sig, ["c", "b|c"], [], {"neg": {("c",): {"c"}, ("b|c",): {"c"}}})
        with pytest.raises(MatrixError, match="same name"):
            strict_product(a, b)  # ("a|b", "c") and ("a", "b|c") are both "a|b|c"


RANDOM_SIG = Signature.of({"c": 0, "neg": 1, "imp": 2})
tiny_pnmatrices = random_pnmatrices(max_values=3)


class TestCombinationProperties:
    """Products, powers and sums of random PNmatrices against their definitions."""

    @settings(max_examples=50, deadline=None)
    @given(tiny_pnmatrices, tiny_pnmatrices, tiny_pnmatrices)
    @example(builtin("luk3"), builtin("neg3"), builtin("kleene-imp"))  # imp, nabla foreign to neg3
    @example(builtin("neg3"), builtin("luk3"), builtin("neg3"))
    def test_products(self, a, b, c):
        p = strict_product(a, b)
        parts = p.meta["parts"]
        compatible = [
            (x, y) for x in a.values for y in b.values
            if (x in a.designated) == (y in b.designated)
        ]
        assert p.values == tuple(f"{x}|{y}" for x, y in compatible)
        assert [parts[v] for v in p.values] == compatible
        assert p.designated == {f"{x}|{y}" for x, y in compatible if x in a.designated}
        for conn, k in p.sig:
            for args, out in p.tables[conn].items():
                xs, ys = zip(*(parts[v] for v in args)) if k else ((), ())
                left = a.entry(conn, xs) if conn in a.sig else set(a.values)
                right = b.entry(conn, ys) if conn in b.sig else set(b.values)
                assert out == {v for v, (x, y) in parts.items() if x in left and y in right}
        for left, right in ((p, c), (c, p)):
            nested = strict_product(left, right)
            assert read_matrix(format_matrix(nested)) == nested
            for q in (nested, prune(nested)):
                assert check_strict_hom(projection(q, 1), q, left) is None
                assert check_strict_hom(projection(q, 2), q, right) is None

    @settings(max_examples=50, deadline=None)
    @given(tiny_pnmatrices, st.integers(1, 3))
    def test_powers(self, m, k):
        p = power(m, k)
        assert read_matrix(format_matrix(p)) == p
        parts = p.meta["parts"]
        assert [parts[v] for v in p.values] == list(itertools.product(m.values, repeat=k))
        assert all(v == "&".join(t) for v, t in parts.items())
        assert p.designated == {v for v, t in parts.items() if set(t) <= m.designated}
        for conn, _ in p.sig:
            for args, out in p.tables[conn].items():
                coords = [m.entry(conn, tuple(parts[v][i] for v in args)) for i in range(k)]
                assert out == {
                    v for v, t in parts.items() if all(t[i] in coords[i] for i in range(k))
                }

    @settings(max_examples=50, deadline=None)
    @given(st.lists(tiny_pnmatrices, min_size=1, max_size=3), tiny_pnmatrices)
    def test_sums(self, ms, extra):
        summands = [extend(m, RANDOM_SIG) for m in ms + [strict_product(ms[0], extra)]]
        s = sum_matrices(summands)
        assert read_matrix(format_matrix(s)) == s
        parts = s.meta["parts"]
        tagged = [(i, x) for i, m in enumerate(summands) for x in m.values]
        assert [parts[v] for v in s.values] == tagged
        assert all(v == f"{i}.{x}" for v, (i, x) in parts.items())
        assert s.designated == {v for v, (i, x) in parts.items() if x in summands[i].designated}
        assert s.entry("c", ()) == {
            v for v, (i, x) in parts.items() if x in summands[i].entry("c", ())
        }
        for conn in ("neg", "imp"):
            for args, out in s.tables[conn].items():
                tags = {parts[v][0] for v in args}
                if len(tags) > 1:
                    assert out == frozenset()
                else:
                    (i,) = tags
                    inner = summands[i].entry(conn, tuple(parts[v][1] for v in args))
                    assert out == {f"{i}.{x}" for x in inner}
        for i, m in enumerate(summands):  # an empty summand's inclusion is empty
            assert check_strict_hom(inclusion(s, i), m, s) is None


def nullary(value_names, designated, outputs):
    """A matrix with only the nullary connective c, outputting ``outputs``."""
    return make_matrix(Signature.of({"c": 0}), value_names, designated, {"c": {(): outputs}})


def only_neg(value_names, designated):
    """A matrix with only neg, the identity on the values."""
    return make_matrix(
        Signature.of({"neg": 1}), value_names, designated, {"neg": {(v,): {v} for v in value_names}}
    )


class TestProductTotality:
    """``strict_product_is_total`` reads off the parts what the product's
    ``is_total`` reads off the product."""

    @settings(max_examples=50, deadline=None)
    @given(tiny_pnmatrices, tiny_pnmatrices)
    @example(builtin("kleene-imp"), builtin("neg3"))  # each side lacks the other's connective
    @example(builtin("luk3"), builtin("kleene-imp"))  # not total: nabla and neg are foreign
    @example(nullary(["0", "1"], ["1"], {"1"}), nullary(["a"], [], {"a"}))  # c: designated only vs undesignated only
    @example(nullary(["0", "1"], ["1"], {"0", "1"}), builtin("neg3"))  # c lies on one side
    @example(only_neg(["a", "b"], ["a", "b"]), only_neg(["x", "y"], []))  # no pairs at all
    @example(nullary(["a"], ["a"], {"a"}), nullary(["x"], [], {"x"}))  # no pairs, a nullary gap
    @example(only_neg(["a", "b"], ["a", "b"]), nullary(["x", "y"], ["x", "y"], set()))
    def test_matches_the_product(self, a, b):
        assert strict_product_is_total(a, b) == strict_product(a, b).is_total()

    def test_fixture_pairs_and_their_restrictions(self):
        rng = seeded("product-totality")
        totals = collections.Counter()
        for x, y in itertools.product(fixture_names(), repeat=2):
            a, b = builtin(x), builtin(y)
            pairs = [(a, b)]
            for _ in range(6):  # seeded sub-carriers make the tables partial
                pairs.append(tuple(
                    restrict(m, [v for v in m.values if rng.random() < 0.7]) for m in (a, b)
                ))
            for left, right in pairs:
                total = strict_product(left, right).is_total()
                assert strict_product_is_total(left, right) == total, (x, y)
                totals[total] += 1
        assert totals[True] and totals[False], totals

    def test_arity_clash_raises_as_the_product_does(self):
        a = nullary(["0"], ["0"], {"0"})
        b = make_matrix(Signature.of({"c": 1}), ["0"], [], {"c": {("0",): {"0"}}})
        with pytest.raises(ValueError) as product_error:
            strict_product(a, b)
        with pytest.raises(ValueError) as error:
            strict_product_is_total(a, b)
        assert str(error.value) == str(product_error.value) == (
            "connective 'c' declared with arities 0 and 1"
        )


# ---------------------------------------------------------------------------
# matrices are read-only values
# ---------------------------------------------------------------------------

def kleene_luk3():
    """A product with spurious values and parts, for the derived matrices."""
    return strict_product(builtin("kleene-ks"), builtin("luk3"))


MADE_BY = {
    "make_matrix": lambda: only_neg(["a", "b"], ["a"]),
    "read_matrix": lambda: read_matrix(format_matrix(builtin("bool2"))),
    "builtin": lambda: builtin("bool2"),
    "reduct": lambda: reduct(kleene_luk3(), Signature.of({"neg": 1, "imp": 2})),
    "restrict": lambda: restrict(kleene_luk3(), kleene_luk3().values[::2]),
    "prune": lambda: prune(kleene_luk3()),
    "extend": lambda: extend(kleene_luk3(), kleene_luk3().sig.union(Signature.of({"box": 1}))),
    "rename_connectives": lambda: rename_connectives(kleene_luk3(), {"imp": "to"}),
    "strict_product": kleene_luk3,
    "sum_matrices": lambda: sum_matrices([builtin("neg3"), builtin("neg3")]),
    "power": lambda: power(builtin("neg3"), 2),
}


class TestReadOnly:
    """Nothing can change a matrix after it is made, so nothing can change
    under its compiled form, and ``builtin`` can share one object."""

    @pytest.mark.parametrize("how", MADE_BY)
    def test_tables_and_meta_are_read_only(self, how):
        m = MADE_BY[how]()
        assert ("parts" in m.meta) == (how not in ("make_matrix", "read_matrix", "builtin"))
        c = next(iter(m.tables))
        args = next(iter(m.tables[c]))
        with pytest.raises(TypeError):
            m.tables[c] = {}
        with pytest.raises(TypeError):
            m.tables[c][args] = frozenset()
        with pytest.raises(TypeError):
            m.meta["known_saturated"] = True
        if "parts" in m.meta:
            with pytest.raises(TypeError):
                m.meta["parts"][m.values[0]] = ()

    def test_the_initialiser_copies_what_it_is_given(self):
        tables = {"neg": {("a",): {"b"}, ("b",): {"a"}}}
        meta = {"parts": {"a": ("x",), "b": ("y",)}}
        m = make_matrix(Signature.of({"neg": 1}), ["a", "b"], ["a"], tables, meta)
        tables["neg"][("a",)] = {"a"}
        tables["imp"] = {}
        meta["parts"]["a"] = ("z",)
        meta["summands"] = 1
        assert dict(m.tables["neg"]) == {("a",): {"b"}, ("b",): {"a"}}
        assert set(m.tables) == {"neg"}
        assert dict(m.meta["parts"]) == {"a": ("x",), "b": ("y",)}
        assert set(m.meta) == {"parts"}

    def test_equal_matrices_answer_alike(self):
        # two equal copies of bool2 once answered one query "yes" and "no"
        a, b = copy.deepcopy(builtin("bool2")), copy.deepcopy(builtin("bool2"))
        gamma, delta = [parse_formula("p", a.sig)], [parse_formula("neg(neg(p))", a.sig)]
        assert decide_multiple(a, gamma, delta).answer == "yes"
        for m in (a, b):
            with pytest.raises(TypeError):
                m.tables["neg"][("0",)] = frozenset({"0"})
        assert a == b
        assert decide_multiple(b, gamma, delta).answer == "yes"

    def test_a_matrix_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'PNMatrix'"):
            hash(builtin("bool2"))

    def test_copies_keep_their_parts_read_only(self):
        s = sum_matrices([builtin("neg3"), builtin("neg3")])
        for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and twin.meta == s.meta
            assert twin.meta["summands"] == 2
            with pytest.raises(TypeError):
                twin.meta["parts"]["0.0"] = ()
            assert inclusion(twin, 1) == inclusion(s, 1)


# ---------------------------------------------------------------------------
# the build bound
# ---------------------------------------------------------------------------

class TestBuildBound:
    @pytest.mark.parametrize("build, width", [
        (lambda: strict_product(builtin("bool2"), builtin("kleene-ks")), 2),
        (lambda: sum_matrices([builtin("neg3"), only_neg(["x"], [])]), 2),
        (lambda: power(builtin("bool2n"), 3), 3),
    ], ids=["product", "sum", "power"])
    def test_values_cells_and_members_are_counted(self, monkeypatch, build, width):
        m = build()
        cells = sum(len(t) for t in m.tables.values())
        members = sum(len(e) for t in m.tables.values() for e in t.values())
        units = len(m.values) * width + cells + members
        monkeypatch.setattr(matrix_core, "BUILD_CAP", units)
        assert build() == m
        # one unit less stops the build as its tables fill; less than the
        # values and cells stops it before any part is made
        for cap in (units - 1, len(m.values) * width + cells - 1):
            monkeypatch.setattr(matrix_core, "BUILD_CAP", cap)
            with pytest.raises(MatrixError, match=f"needs more than {cap} values, table cells"):
                build()

    @pytest.mark.parametrize("build, message", [
        (lambda: combine_single_power(builtin("neg3"), builtin("sources"), 3),
         "strict product needs more than 2097152 values, table cells and entry members"
         " (at least 1464 values and 4288056 table cells)"),
        (lambda: power(builtin("sources"), 7),
         "power needs more than 2097152 values, table cells and entry members"
         " (at least 16384 values and 536887296 table cells)"),
        (lambda: sum_matrices([builtin("bool2")] * 2049),
         "sum needs more than 2097152 values, table cells and entry members"
         " (at least 4098 values and 50384911 table cells)"),
        (lambda: power(builtin("neg3"), 21),
         "power needs more than 2097152 values, table cells and entry members"
         " (at least 10460353203 values and 10460353203 table cells)"),
        (lambda: power(nullary(["0", "1"], ["1"], {"0", "1"}), 20),  # only a nullary connective
         "power needs more than 2097152 values, table cells and entry members"
         " (at least 1048576 values and 1 table cells)"),
        (lambda: power(builtin("bool2"), 10 ** 9),  # counted as the 22nd power
         "power needs more than 2097152 values, table cells and entry members"
         " (at least 4194304 values and 52776562327553 table cells)"),
    ], ids=["defect-2-product", "sources^7", "2049-summands", "neg3^21", "nullary^20", "bool2^1e9"])
    def test_a_build_past_the_bound_stops_before_it_allocates(self, build, message):
        tracemalloc.start()
        try:
            with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


# ---------------------------------------------------------------------------
# the bytes of constructed matrices
# ---------------------------------------------------------------------------

#: per construction, the first 16 hex digits of the sha256 of its
#: ``format_matrix`` text and of the repr of its meta (see ``plain_meta``),
#: computed before products, sums and powers made their parts lazily and
#: took designation as a predicate
CONSTRUCTED_DIGESTS = {
    "product:bool2:bool2": ("c22d277b29844d88", "87e889e3182c7a56"),
    "product:bool2:bool2n": ("db3d1e963804e6af", "87e889e3182c7a56"),
    "product:bool2:kleene-imp": ("064843ddcb94dde0", "a064df730d21c05d"),
    "product:bool2:kleene-ks": ("f4911f14466ab6f1", "6e642bf761345402"),
    "product:bool2:luk-imp": ("f5d52f85da43978a", "a064df730d21c05d"),
    "product:bool2:luk3": ("85771923d7bec15b", "a064df730d21c05d"),
    "product:bool2:neg3": ("542a5571647b110a", "a064df730d21c05d"),
    "product:bool2:sources": ("61f876659b75bcfa", "064feae750602736"),
    "product:bool2n:bool2": ("db3d1e963804e6af", "87e889e3182c7a56"),
    "product:bool2n:bool2n": ("cffa2f0bb2cc75ce", "87e889e3182c7a56"),
    "product:bool2n:kleene-imp": ("d709d81ccc0aeb79", "a064df730d21c05d"),
    "product:bool2n:kleene-ks": ("7c2c68c772c9aac7", "6e642bf761345402"),
    "product:bool2n:luk-imp": ("c9e915493c39a2d4", "a064df730d21c05d"),
    "product:bool2n:luk3": ("e3f803a1e1363faf", "a064df730d21c05d"),
    "product:bool2n:neg3": ("3ae86069af64ff6d", "a064df730d21c05d"),
    "product:bool2n:sources": ("56ac1ad4ca61627a", "064feae750602736"),
    "product:kleene-imp:bool2": ("5e09627da681bc59", "a97ce32cb99e356d"),
    "product:kleene-imp:bool2n": ("7a19452277552a49", "a97ce32cb99e356d"),
    "product:kleene-imp:kleene-imp": ("b4f9cc0e4df57978", "b3f84d8398e1eecd"),
    "product:kleene-imp:kleene-ks": ("d1a08eca8b14ccf2", "0bbc4ef448fe9755"),
    "product:kleene-imp:luk-imp": ("e10cbbad87226e20", "b3f84d8398e1eecd"),
    "product:kleene-imp:luk3": ("e00dc790e106e6eb", "b3f84d8398e1eecd"),
    "product:kleene-imp:neg3": ("9e87fd552089fcbd", "b3f84d8398e1eecd"),
    "product:kleene-imp:sources": ("7bc9e533bf92d41d", "0d703ea63505922c"),
    "product:kleene-ks:bool2": ("b6ba3b15c60c31f2", "cee806f6ff152e85"),
    "product:kleene-ks:bool2n": ("1587d136148c6922", "cee806f6ff152e85"),
    "product:kleene-ks:kleene-imp": ("28920210822b0d3b", "93fa8865c241308b"),
    "product:kleene-ks:kleene-ks": ("97bead496d4e5baa", "bbb514713c3534b9"),
    "product:kleene-ks:luk-imp": ("68846509178d6854", "93fa8865c241308b"),
    "product:kleene-ks:luk3": ("6f99a7c84efe2811", "93fa8865c241308b"),
    "product:kleene-ks:neg3": ("cb977ae9061a99f7", "93fa8865c241308b"),
    "product:kleene-ks:sources": ("ba6740163aa6b551", "05363cff16dd64b4"),
    "product:luk-imp:bool2": ("0c5737a7de403e59", "a97ce32cb99e356d"),
    "product:luk-imp:bool2n": ("54bd1ade00355bed", "a97ce32cb99e356d"),
    "product:luk-imp:kleene-imp": ("839bc79a0d4ed060", "b3f84d8398e1eecd"),
    "product:luk-imp:kleene-ks": ("65554c8003ff69ec", "0bbc4ef448fe9755"),
    "product:luk-imp:luk-imp": ("a57d1fabbb12c279", "b3f84d8398e1eecd"),
    "product:luk-imp:luk3": ("2f49ce2c91e7db30", "b3f84d8398e1eecd"),
    "product:luk-imp:neg3": ("9e9757f15f3dd4f4", "b3f84d8398e1eecd"),
    "product:luk-imp:sources": ("354a7eef8145c39d", "0d703ea63505922c"),
    "product:luk3:bool2": ("1bf757f663b50eb4", "a97ce32cb99e356d"),
    "product:luk3:bool2n": ("c47a3c305b04c6f6", "a97ce32cb99e356d"),
    "product:luk3:kleene-imp": ("34f78c19a0779c52", "b3f84d8398e1eecd"),
    "product:luk3:kleene-ks": ("aa4d63b9eb6df1bb", "0bbc4ef448fe9755"),
    "product:luk3:luk-imp": ("5fbda279e1b984ee", "b3f84d8398e1eecd"),
    "product:luk3:luk3": ("d5ca5278bd6db965", "b3f84d8398e1eecd"),
    "product:luk3:neg3": ("860959dd0fcc01af", "b3f84d8398e1eecd"),
    "product:luk3:sources": ("587c3b284555bba9", "0d703ea63505922c"),
    "product:neg3:bool2": ("510d579dcc515853", "a97ce32cb99e356d"),
    "product:neg3:bool2n": ("cafa05cf2ca8d0a1", "a97ce32cb99e356d"),
    "product:neg3:kleene-imp": ("ddee147c35f58222", "b3f84d8398e1eecd"),
    "product:neg3:kleene-ks": ("a87e6c07ae0df9a6", "0bbc4ef448fe9755"),
    "product:neg3:luk-imp": ("c553ee6b0bd96159", "b3f84d8398e1eecd"),
    "product:neg3:luk3": ("f6144950771b5a78", "b3f84d8398e1eecd"),
    "product:neg3:neg3": ("1ba3d64c4c1413d1", "b3f84d8398e1eecd"),
    "product:neg3:sources": ("c1d41f2730c0f662", "0d703ea63505922c"),
    "product:sources:bool2": ("096ad016563c014e", "2106f899063b7438"),
    "product:sources:bool2n": ("91b5709fc4099023", "2106f899063b7438"),
    "product:sources:kleene-imp": ("d79e988a1bb94a03", "cc8d444fc939f8d0"),
    "product:sources:kleene-ks": ("8cfad26f3630f985", "0448591e43d386c3"),
    "product:sources:luk-imp": ("756862db85d5d983", "cc8d444fc939f8d0"),
    "product:sources:luk3": ("8fd4206a7f09e706", "cc8d444fc939f8d0"),
    "product:sources:neg3": ("32dac8c226879ca4", "cc8d444fc939f8d0"),
    "product:sources:sources": ("ba4440163c61224f", "1051f30dcc9867d3"),
    "power:bool2:2": ("a0febaee7140b234", "a1374ca52523d799"),
    "power:bool2:3": ("4514bf5888a1b30a", "8a91d7684614a1f4"),
    "power:bool2n:2": ("a9c82b71ef3eed9c", "a1374ca52523d799"),
    "power:bool2n:3": ("40e8981de2dc7bd2", "8a91d7684614a1f4"),
    "power:kleene-imp:2": ("b3df72c003736a0f", "abb2786a1220f9ed"),
    "power:kleene-imp:3": ("fe65c748ba11777f", "785c8265487cb7ac"),
    "power:kleene-ks:2": ("1ae8bcadafffccaf", "d74e0cae7833989b"),
    "power:kleene-ks:3": ("4e1894d633002ca8", "eda7a6eeba3fb6f2"),
    "power:luk-imp:2": ("9dfb90e07c28640e", "abb2786a1220f9ed"),
    "power:luk-imp:3": ("c01dace289cd5c66", "785c8265487cb7ac"),
    "power:luk3:2": ("e32528bfa0878e1d", "abb2786a1220f9ed"),
    "power:luk3:3": ("3b739dbb6becee34", "785c8265487cb7ac"),
    "power:neg3:2": ("1a5476d85ff5fa28", "abb2786a1220f9ed"),
    "power:neg3:3": ("723383b846d39133", "785c8265487cb7ac"),
    "power:sources:2": ("a50841d399050b69", "851b1871cf4efbd3"),
    "power:sources:3": ("116965225495bd01", "780a38af676a4768"),
    "sum:bool2:bool2": ("aed200f5c891afef", "f6cd6c10b15a8565"),
    "sum:bool2n:bool2n": ("60714ea0fdc54cfe", "f6cd6c10b15a8565"),
    "sum:kleene-imp:kleene-imp": ("0aa851f024a0a731", "98921860ff94f0b6"),
    "sum:kleene-imp:luk-imp": ("f6fa9bdcf62419aa", "98921860ff94f0b6"),
    "sum:kleene-ks:kleene-ks": ("d23a99cd31ea1fb6", "9245f3cfe658a7fb"),
    "sum:kleene-ks:sources": ("6427a86aa3c80536", "582056aa9f4633b2"),
    "sum:luk-imp:kleene-imp": ("a7e6c5aa8e2fce46", "98921860ff94f0b6"),
    "sum:luk-imp:luk-imp": ("af565fbd682d35f2", "98921860ff94f0b6"),
    "sum:luk3:luk3": ("27b0be21747f7cfa", "98921860ff94f0b6"),
    "sum:neg3:neg3": ("a5bd4046393eabe9", "98921860ff94f0b6"),
    "sum:sources:kleene-ks": ("0920ab3172d8159a", "3e3531115e365afc"),
    "sum:sources:sources": ("f2042e5170c447fa", "0f1db82e96492f34"),
    "prune": ("0bae3a0fce1b8380", "b9b043560e7011e0"),
    "reduct": ("0d914fde95bd153e", "93fa8865c241308b"),
    "restrict": ("dbe0663c5fed0106", "621618b4c1497e44"),
    "extend": ("92cafa2a4360e661", "93fa8865c241308b"),
    "rename_connectives": ("88b5b484c25c79f4", "93fa8865c241308b"),
}

CONSTRUCTIONS = (
    [f"product:{a}:{b}" for a, b in itertools.product(fixture_names(), repeat=2)]
    + [f"power:{a}:{k}" for a in fixture_names() for k in (2, 3)]
    + [f"sum:{a}:{b}" for a, b in itertools.product(fixture_names(), repeat=2)
       if builtin(a).sig == builtin(b).sig]
    + ["prune", "reduct", "restrict", "extend", "rename_connectives"]
)

DERIVED = {
    "prune": prune,
    "reduct": lambda p: reduct(p, Signature.of({"neg": 1, "imp": 2})),
    "restrict": lambda p: restrict(p, p.values[::2]),
    "extend": lambda p: extend(p, p.sig.union(Signature.of({"box": 1, "top": 0}))),
    "rename_connectives": lambda p: rename_connectives(p, {"and": "or", "or": "and", "imp": "to"}),
}


def constructed(case):
    """The matrix a case of ``CONSTRUCTIONS`` names."""
    kind, *args = case.split(":")
    if kind == "product":
        return strict_product(builtin(args[0]), builtin(args[1]))
    if kind == "power":
        return power(builtin(args[0]), int(args[1]))
    if kind == "sum":
        return sum_matrices([builtin(a) for a in args])
    return DERIVED[kind](kleene_luk3())


def plain_meta(m):
    """m's meta with its parts as a plain dict."""
    return {k: dict(v) if k == "parts" else v for k, v in m.meta.items()}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestConstructedBytes:
    def test_every_construction_is_pinned(self):
        assert sorted(CONSTRUCTIONS) == sorted(CONSTRUCTED_DIGESTS)

    @pytest.mark.parametrize("case", CONSTRUCTIONS)
    def test_file_bytes_and_parts(self, case):
        m = constructed(case)
        assert validate(m) == []
        assert (digest(format_matrix(m)), digest(repr(plain_meta(m)))) == CONSTRUCTED_DIGESTS[case]
