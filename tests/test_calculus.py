import pytest

from pnmatrix import (
    ParseError,
    builtin,
    builtin_calculus,
    calculus_sound,
    format_calculus,
    parse_calculus,
    parse_rule,
    print_formula,
    rule_sound,
)


SIG = builtin("bool2").sig


class TestRuleParsing:
    def test_both_sides(self):
        r = parse_rule("mp : p, imp(p, q) |- q", SIG)
        assert r.name == "mp"
        assert [print_formula(f) for f in r.premises] == ["p", "imp(p, q)"]
        assert [print_formula(f) for f in r.conclusions] == ["q"]

    def test_empty_sides(self):
        r = parse_rule("absurd : p, neg(p) |- -", SIG)
        assert r.conclusions == ()
        r = parse_rule("lem : - |- p, neg(p)", SIG)
        assert r.premises == ()

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_rule("broken : p, q", SIG)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_calculus("a : p |- p\na : q |- q", SIG)

    @pytest.mark.parametrize("text, message, offset", [
        ("p |- q", "rule line needs a ':' after the rule name (at offset 0)", 0),
        (" : p |- q", "empty rule name (at offset 0)", 0),
        ("a : p |- p\n\nb : p, q\n",
         "line 3: rule line needs a '|-' separating the two sides (at offset 2)", 2),
    ], ids=["no-colon", "empty-name", "line-prefix"])
    def test_rejections(self, text, message, offset):
        with pytest.raises(ParseError) as e:
            parse_calculus(text, SIG) if "\n" in text else parse_rule(text, SIG)
        assert (str(e.value), e.value.offset) == (message, offset)

    @pytest.mark.parametrize("text, message, offset", [
        ("a : p |- and(p)", "connective 'and' expects 2 arguments, got 1 (at offset 9)", 9),
        ("a : and(p) |- p", "connective 'and' expects 2 arguments, got 1 (at offset 4)", 4),
        ("a : p |- p\n  b : p |- q)  # a comment\n",
         "line 2: expected 'eof', found ')' (at offset 12)", 12),
    ], ids=["conclusion", "premise", "indented-line"])
    def test_formula_offsets_count_from_the_line_start(self, text, message, offset):
        with pytest.raises(ParseError) as e:
            parse_calculus(text, SIG) if "\n" in text else parse_rule(text, SIG)
        assert (str(e.value), e.value.offset) == (message, offset)
        line = text.splitlines()[-1]
        assert line[offset] in "a)"  # the offending token

    def test_pretty_prints_empty_sides_as_dashes(self):
        r = parse_rule("none : - |-", SIG)
        assert r.pretty() == "none : - |- -"
        assert parse_rule(r.pretty(), SIG) == r

    def test_format_round_trip(self):
        cal = builtin_calculus("classical")
        again = parse_calculus(format_calculus(cal), SIG)
        assert again.rules == cal.rules


class TestSoundness:
    def test_classical_calculus_over_bool2(self):
        report = calculus_sound(builtin("bool2"), builtin_calculus("classical"))
        assert report.all_sound and len(report.per_rule) == 12

    def test_ks_calculus_over_ks(self):
        report = calculus_sound(builtin("kleene-ks"), builtin_calculus("kleene-ks"))
        assert report.all_sound and len(report.per_rule) == 15

    def test_sources_calculus_over_sources(self):
        report = calculus_sound(builtin("sources"), builtin_calculus("sources"))
        assert report.all_sound and len(report.per_rule) == 12

    def test_nondeterministic_calculus(self):
        report = calculus_sound(builtin("bool2n"), builtin_calculus("bool2n"))
        assert report.all_sound

    def test_unsound_rule_detected(self):
        ks = builtin("kleene-ks")
        r = parse_rule("bad-lem : - |- p, neg(p)", ks.sig)
        v = rule_sound(ks, r)
        assert v.answer == "no"
        # the countermodel sits in the gap component
        assert v.countermodel.as_dict()[r.conclusions[0]] == "a"

    def test_failures_listed(self):
        ks = builtin("kleene-ks")
        cal = parse_calculus("ok : p |- p\nbad : - |- p, neg(p)", ks.sig)
        report = calculus_sound(ks, cal)
        assert not report.all_sound
        assert [r.name for r, _ in report.failures()] == ["bad"]
