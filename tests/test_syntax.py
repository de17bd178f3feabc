import copy
import gc
import importlib.util
import pickle
import re
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

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
    builtin,
    decide_multiple,
    formula_key,
    formula_size,
    parse_formula,
    parse_formula_list,
    print_formula,
    skeleton,
    subformula_closure,
    subformulas,
    variables,
    well_formed,
)
from pnmatrix.syntax import _rebuild, ill_formed_node, print_formula_list
from rewrite_reference import reference_apply_substitution, reference_skeleton

SIG = Signature.of({"top": 0, "neg": 1, "and": 2, "imp": 2})
ROOT = Path(__file__).resolve().parents[1]


def unskeleton(f, mm):
    """Undo skeleton: restore the monoliths and the original variable names."""
    if isinstance(f, Var):
        if f.name in mm.monolith_of_var:
            return mm.monolith_of_var[f.name]
        assert f.name.startswith("v_")
        return Var(f.name[2:])
    return App(f.head, tuple(unskeleton(a, mm) for a in f.args))


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

    def test_pairs_are_kept_sorted_however_given(self):
        given = Signature((("b", 1), ("a", 2)))
        assert given == Signature.of({"a": 2, "b": 1})
        assert given.connectives == (("a", 2), ("b", 1))
        assert hash(given) == hash(Signature.of({"b": 1, "a": 2}))

    @pytest.mark.parametrize("pairs", [(("a", 1), ("a", 2)), (("a", 1), ("b", 0), ("a", 1))])
    def test_a_name_given_twice_is_an_error(self, pairs):
        with pytest.raises(ValueError, match="connective 'a' given twice"):
            Signature(pairs)

    @pytest.mark.parametrize("pairs, message", [
        ({"neg": 1.0}, "connective 'neg' has arity 1.0, not an int"),
        ({"neg": True}, "connective 'neg' has arity True, not an int"),
        ({"neg": "1"}, "connective 'neg' has arity '1', not an int"),
        ({("a",): 1}, "connective name ('a',) is not a str"),
        ({"neg": 1, 2: 0}, "connective name 2 is not a str"),  # sorting would raise first
    ], ids=["float", "bool", "str-arity", "tuple-name", "mixed-names"])
    def test_a_name_or_arity_of_the_wrong_type_is_an_error(self, pairs, message):
        with pytest.raises(ValueError) as e:
            Signature.of(pairs)
        assert str(e.value) == message

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

    @pytest.mark.parametrize("text, message, offset", [
        ("neg(p # a comment runs to the end of the line", "expected ')', found '' (at offset 45)", 45),
        ("neg(p) $", "unexpected character '$' (at offset 7)", 7),
        ("or(p, q)", "undeclared connective 'or' (at offset 0)", 0),
    ], ids=["comment", "character", "connective"])
    def test_rejections(self, text, message, offset):
        with pytest.raises(ParseError) as e:
            parse_formula(text, SIG)
        assert (str(e.value), e.value.offset) == (message, offset)

    @given(formulas())
    def test_print_parse_round_trip(self, f):
        assert parse_formula(print_formula(f), SIG) == f

    @given(st.lists(formulas(), max_size=3))
    def test_list_print_parse_round_trip(self, fs):
        text = print_formula_list(fs)
        assert text == (", ".join(map(print_formula, fs)) or "-")
        assert parse_formula_list(text, SIG) == tuple(fs)


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

    def test_first_ill_formed_node(self):
        nodes = [Var("p"), App("neg", (Var("p"),)), Var("neg"), App("and", (Var("p"),))]
        assert ill_formed_node(nodes, SIG) is Var("neg")
        assert ill_formed_node(nodes[3:], SIG) is nodes[3]
        assert ill_formed_node(nodes[:2], SIG) is None

    def test_well_formed(self):
        assert well_formed(parse_formula("neg(p)", SIG), SIG)
        assert not well_formed(App("neg", ()), SIG)
        assert not well_formed(Var("neg"), SIG)


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
        assert unskeleton(s, mm) is f

    def test_fresh_names_skip_declared_connectives(self):
        sub = Signature.of({"m1": 0, "mm1": 1, "neg": 1, "v_p": 0})
        mm = MonolithMap()
        assert skeleton(parse_formula("neg(and(p, q))", SIG), sub, mm)[0] == App("neg", (Var("mmm1"),))
        assert skeleton(parse_formula("imp(p, q)", SIG), sub, mm)[0] == Var("m2")
        assert [print_formula(mm.monolith_of_var[v]) for v in ("mmm1", "m2")] == ["and(p, q)", "imp(p, q)"]
        assert skeleton(Var("p"), sub, mm)[0] == Var("v_v_p")
        assert skeleton(Var("q"), sub, mm)[0] == Var("v_q")


class TestRewrites:
    """Substitution and skeletons equal their one-walk-per-formula reference
    (``rewrite_reference``)."""

    @given(formulas(), st.dictionaries(st.sampled_from("pqrs"), formulas(), max_size=3))
    def test_substitution_equals_the_reference(self, f, mapping):
        s = Substitution.of(mapping)
        assert apply_substitution(f, s) is reference_apply_substitution(f, s)

    @given(st.lists(formulas(), min_size=1, max_size=4))
    def test_a_shared_memo_gives_the_reference_skeletons(self, fs):
        sub = Signature.of({"imp": 2, "top": 0})
        mm, ref = MonolithMap(), MonolithMap()
        for f in fs:
            assert skeleton(f, sub, mm)[0] is reference_skeleton(f, sub, ref)
        assert list(mm.var_of_monolith.items()) == list(ref.var_of_monolith.items())

    def test_keep_is_asked_once_per_node(self):
        f = parse_formula("and(imp(neg(p), neg(p)), imp(neg(p), q))", SIG)
        asked, leaves = Counter(), []

        def keep(g):
            asked[g] += 1
            return g.head != "neg"

        s = _rebuild(f, lambda g: leaves.append(g) or Var(f"x{len(leaves)}"), keep, {})
        assert s is parse_formula("and(imp(x1, x1), imp(x1, x2))", SIG)
        assert leaves == [parse_formula("neg(p)", SIG), Var("q")]
        assert set(asked.values()) == {1} and len(asked) == 4
        memo = {}
        first = _rebuild(f, lambda g: Var("x"), keep, memo)
        assert _rebuild(f, None, keep, memo) is first and asked[f] == 2  # found in the memo


class TestInterning:
    """Var and App return the one live node for their formula."""

    @given(formulas())
    def test_equal_formulas_are_one_node(self, f):
        assert parse_formula(print_formula(f), SIG) is f
        if isinstance(f, App):
            assert App(f.head, f.args) is f
            assert App(f.head, list(f.args)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_identity_is_equality(self):
        for cls in (Var, App):
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
        assert Var("p") is Var("p") and Var("p") is not Var("q")
        assert App("top") is App("top", ()) and App("top", ()) is not Var("top")
        assert App("neg", (Var("p"),)) is not App("neg", (Var("q"),))

    def test_nodes_are_immutable(self):
        f = App("neg", (Var("p"),))
        with pytest.raises(AttributeError):
            f.head = "and"
        with pytest.raises(AttributeError):
            del Var("p").name

    def test_table_holds_nodes_weakly(self):
        from pnmatrix.syntax import _nodes

        gc.collect()
        before = len(_nodes)
        fresh = [App("and", (Var(f"fresh{i}"), App("neg", (Var("p"),)))) for i in range(10_000)]
        assert len(_nodes) >= before + 20_000
        del fresh
        gc.collect()
        assert len(_nodes) == before

    def test_a_node_rebuilt_under_a_dead_entry_keeps_its_key(self):
        from pnmatrix.syntax import _forget, _nodes

        gc.collect()
        before = len(_nodes)
        key = ("neg", (Var("rebuilt"),))  # a node no other test keeps
        node = App(*key)
        stale = _nodes[key]
        del node
        assert key not in _nodes and stale() is None
        # as when the node dies while another thread builds it again: the
        # table still holds the dead entry, and its removal runs late
        _nodes[key] = stale
        node = App(*key)
        assert _nodes[key] is not stale and _nodes[key]() is node
        _forget(stale)
        assert _nodes[key]() is node and App(*key) is node
        del node, key, stale  # the key holds Var("rebuilt")
        gc.collect()
        assert len(_nodes) == before

    def test_built_and_dropped_nodes_free_their_memory(self):
        def build_and_drop(tag):
            fresh = [App("imp", (Var(f"{tag}{i}"), App("neg", (Var(f"{tag}{i}"),)))) for i in range(10_000)]
            del fresh
            gc.collect()

        gc.collect()
        tracemalloc.start()
        try:
            build_and_drop("warm")  # the table grows to its size for 30,000 nodes
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for r in range(3):
                build_and_drop(f"round{r}_")
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert now - start < 64_000
        assert peak - start < 12_000_000  # about 300 bytes per live node and its entry

    @pytest.mark.parametrize("make, named", [
        (lambda: App(None, ()), "head must be a str, not None"),
        (lambda: Var(3), "name must be a str, not 3"),
        (lambda: App("neg", ("p",)), "argument of 'neg' must be a formula, not 'p'"),
        (lambda: App("and", (Var("p"), None)), "argument of 'and' must be a formula, not None"),
        (lambda: Var(["p"]), "name must be a str, not ['p']"),  # unhashable
        (lambda: App("neg", [[Var("p")]]), "argument of 'neg' must be a formula, not [<Var p>]"),
    ])
    def test_what_is_not_a_formula_is_refused(self, make, named):
        from pnmatrix.syntax import _nodes

        gc.collect()
        before = len(_nodes)
        with pytest.raises(TypeError, match=re.escape(named)):
            make()
        gc.collect()
        assert len(_nodes) == before

    def test_threads_share_nodes(self):
        def build(out):
            out.extend(App("imp", (Var(f"t{i}"), App("neg", (Var(f"t{i}"),)))) for i in range(2000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in range(4)]
            threads = [threading.Thread(target=build, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(len(out) == 2000 for out in results)
        assert all(a is b for out in results[1:] for a, b in zip(results[0], out))

    def test_clearing_the_benchmark_caches_keeps_nodes(self, monkeypatch):
        # perfbench empties every module-level cache of the library before each pass
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        m = builtin("bool2")
        text = "imp(and(p, neg(q)), or(q, p))"
        f = parse_formula(text, m.sig)
        first = decide_multiple(m, [f], [Var("p")])
        workloads.clear_library_caches()
        g = parse_formula(text, m.sig)
        assert g is f
        again = decide_multiple(m, [g], [Var("p")])
        assert again.countermodel == first.countermodel is not None


DEPTH = 5000


def nested(head, depth, leaf="p"):
    """The text of head applied `depth` times, right-nested, around `leaf`."""
    opening = f"{head}(" if head == "neg" else f"{head}(q, "
    return opening * depth + leaf + ")" * depth


class TestDeepFormulas:
    """No formula walk recurses, so depth is bounded by memory alone."""

    @pytest.fixture(autouse=True)
    def recursion_limit_unchanged(self):
        limit = sys.getrecursionlimit()
        yield
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("head", ["neg", "and"])
    def test_parse_and_print(self, head):
        text = nested(head, DEPTH)
        f = parse_formula(text, SIG)
        assert formula_size(f) == (DEPTH + 1 if head == "neg" else 2 * DEPTH + 1)
        assert print_formula(f) == text
        assert repr(f) == f"<App {text}>"
        assert parse_formula(text, SIG) is f

    def test_parse_errors_are_parse_errors(self):
        with pytest.raises(ParseError) as e:
            parse_formula(nested("neg", DEPTH)[:-1], SIG)
        assert e.value.offset == len(nested("neg", DEPTH)) - 1
        with pytest.raises(ParseError):
            parse_formula(nested("neg", DEPTH, leaf="and(p)"), SIG)

    @pytest.mark.parametrize("head", ["neg", "and"])
    def test_walks(self, head):
        f = parse_formula(nested(head, DEPTH), SIG)
        assert well_formed(f, SIG)
        assert not well_formed(f, SIG.union(Signature.of({"p": 0})))  # the innermost node
        assert variables(f) == ({"p"} if head == "neg" else {"p", "q"})
        assert len(subformula_closure([f])) == len(subformulas(f))
        s = Substitution.of({"p": App("top", ())})
        assert apply_substitution(f, s) is parse_formula(nested(head, DEPTH, leaf="top"), SIG)

    def test_large_nodes_of_equal_size_are_ordered_by_text(self):
        p, q = (parse_formula(nested("neg", 300, leaf=v), SIG) for v in ("p", "q"))
        for roots in ([p, q], [q, p]):
            omega = subformula_closure(roots)
            assert omega == sorted(omega, key=formula_key)
            assert omega[-2:] == [p, q]

    def test_skeleton(self):
        f = parse_formula(nested("neg", DEPTH, leaf="and(p, q)"), SIG)
        mm = MonolithMap()
        s, _ = skeleton(f, Signature.of({"neg": 1}), mm)
        assert s is parse_formula(nested("neg", DEPTH, leaf="m1"), SIG)
        assert print_formula(mm.monolith_of_var["m1"]) == "and(p, q)"
        assert skeleton(f, SIG, MonolithMap())[0] is parse_formula(
            nested("neg", DEPTH, leaf="and(v_p, v_q)"), SIG
        )
