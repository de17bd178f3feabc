import json
from pathlib import Path

import pytest

from pnmatrix import (
    EXIT_ERROR,
    EXIT_NO,
    EXIT_UNKNOWN,
    EXIT_YES,
    MatrixError,
    Signature,
    builtin,
    extend,
    format_matrix,
    make_matrix,
    power,
    read_matrix,
    reduct,
    rename_connectives,
    run_cli,
    strict_product,
    sum_matrices,
)


FIXTURE_NAMES = (
    "bool2",
    "bool2n",
    "kleene-imp",
    "kleene-ks",
    "luk-imp",
    "luk3",
    "neg3",
    "sources",
)


class TestMatrixFiles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_is_exact(self, name):
        m = builtin(name)
        text = format_matrix(m)
        again = read_matrix(text)
        assert again == m
        assert format_matrix(again) == text

    def test_round_trip_through_product(self):
        for left, right in (("kleene-imp", "luk-imp"), ("sources", "kleene-ks")):
            p = strict_product(builtin(left), builtin(right))
            assert read_matrix(format_matrix(p)) == p

    @pytest.mark.parametrize("bad", ["", "-", "*", "a b", "a\tb", "a:b", "a#b", " a"])
    def test_unwritable_value_names_are_rejected(self, bad):
        sig = Signature.of({"neg": 1})
        table = {("ok",): {bad}, (bad,): {"ok"}}
        with pytest.raises(MatrixError, match="cannot be written"):
            make_matrix(sig, ["ok", bad], ["ok"], {"neg": table})

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a:b", "x#y", "values:x", " a"])
    def test_unwritable_connective_names_are_rejected(self, bad):
        sig = Signature.of({bad: 1})
        table = {("0",): {"1"}, ("1",): {"0"}}
        with pytest.raises(MatrixError, match="cannot be written"):
            make_matrix(sig, ["0", "1"], ["1"], {bad: table})

    @pytest.mark.parametrize("bad", ["", "a b", "x#y", "values:x"])
    def test_extend_and_rename_reject_unwritable_names(self, bad):
        m = builtin("bool2")
        with pytest.raises(MatrixError, match="cannot be written"):
            extend(m, m.sig.union(Signature.of({bad: 1})))
        with pytest.raises(MatrixError, match="cannot be written"):
            rename_connectives(m, {"neg": bad})

    def test_empty_signature_round_trips(self):
        m = make_matrix(Signature(), ["a", "b"], ["b"], {})
        assert format_matrix(m) == "signature:\nvalues: a b\ndesignated: b\n"
        assert read_matrix(format_matrix(m)) == m
        r = reduct(builtin("bool2"), Signature())
        assert read_matrix(format_matrix(r)) == r

    def test_unsorted_signature_round_trips(self):
        m = make_matrix(Signature((("b", 1), ("a", 1))), ["0", "1"], ["1"], {
            "a": {("0",): {"1"}, ("1",): {"0"}},
            "b": {("0",): {"0"}, ("1",): {"1"}},
        })
        assert read_matrix(format_matrix(m)) == m

    def test_empty_and_full_cells(self):
        ks = builtin("kleene-ks")
        text = format_matrix(ks)
        assert " : -" in text  # partial entries
        text2 = format_matrix(power(builtin("bool2"), 1))
        assert read_matrix(text2) == power(builtin("bool2"), 1)

    def test_errors_carry_line_numbers(self):
        from pnmatrix import FormatError

        bad = "signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\ntable neg:\n  0 1\n"
        with pytest.raises(FormatError, match="line 6"):
            read_matrix(bad)

    NEG = "table neg:\n  0 : 1\n  1 : 0\n"

    @pytest.mark.parametrize("text, message", [
        ("signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\n" + NEG + "table neg:\n",
         "line 8: duplicate table for 'neg'"),
        ("signature:\n  neg one\n", "line 2: bad signature line 'neg one'"),
        ("values: 0 1\nhello\n", "line 2: unexpected line 'hello'"),
        ("values: 0 1\ndesignated: 1\n", "line 2: missing signature block"),
        ("signature:\n  neg 1\ndesignated: 1\n", "line 3: missing values line"),
        ("signature:\n  neg 1\nvalues: 0 1\n", "line 3: missing designated line"),
        ("signature:\n  neg 1\n  neg 1\nvalues: 0 1\ndesignated: 1\n" + NEG,
         "line 8: duplicate connective in signature"),
        ("signature:\n  neg 1\nvalues: 0 1\ndesignated: 2\n" + NEG,
         "line 7: designated values ['2'] not in value set"),
        ("signature:\n  neg 1\ntable neg:\n  0 : *\n  1 : 0\nvalues: 0 1\ndesignated: 1\n",
         "line 4: '*' before the values line"),
        ("signature:\n  neg 1\nvalues: 0 1\nvalues: 0 1 2\ndesignated: 1\n" + NEG,
         "line 4: duplicate values line"),
        ("signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\ndesignated: 0\n" + NEG,
         "line 5: duplicate designated line"),
        ("signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\nsignature:\n  top 0\n" + NEG
         + "table top:\n   : 1\n",
         "line 5: duplicate signature block"),
    ], ids=["duplicate-table", "signature-line", "unexpected-line", "no-signature",
            "no-values", "no-designated", "duplicate-connective", "invalid-matrix",
            "star-before-values", "duplicate-values", "duplicate-designated",
            "duplicate-signature"])
    def test_rejections(self, text, message):
        from pnmatrix import FormatError

        with pytest.raises(FormatError) as e:
            read_matrix(text)
        assert str(e.value) == message

    def test_duplicate_row_rejected(self):
        from pnmatrix import FormatError

        bad = (
            "signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\n"
            "table neg:\n  0 : 1\n  0 : 0\n  1 : 0\n"
        )
        with pytest.raises(FormatError, match="duplicate row"):
            read_matrix(bad)


class TestExitCodes:
    def test_decide_yes(self):
        assert (
            run_cli(
                ["decide", "--matrix", "bool2", "--premises", "p", "--conclusions", "p"]
            )
            == EXIT_YES
        )

    def test_decide_no(self):
        assert (
            run_cli(["decide", "--matrix", "bool2", "--conclusions", "p"]) == EXIT_NO
        )

    def test_unknown_fixture_is_an_error(self, capsys):
        assert run_cli(["decide", "--matrix", "nope", "--conclusions", "p"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "bool2" in err  # the error lists the available fixtures

    def test_bad_formula_is_an_error(self):
        assert (
            run_cli(["decide", "--matrix", "bool2", "--conclusions", "and(p"])
            == EXIT_ERROR
        )

    def test_separator_not_found_is_unknown(self):
        rc = run_cli(
            [
                "separators",
                "--matrix",
                "luk3",
                "--pair",
                "0,h",
                "--subsignature",
                "imp",
                "--max-depth",
                "3",
            ]
        )
        assert rc == EXIT_UNKNOWN

    def test_refute_saturation_codes(self):
        assert run_cli(["refute-saturation", "--matrix", "kleene-imp"]) == EXIT_NO
        assert run_cli(["refute-saturation", "--matrix", "neg3"]) == EXIT_UNKNOWN

    def test_negative_samples_is_an_error(self, capsys):
        argv = ["split-advice", "--matrix", "luk3", "--first", "neg,imp", "--second", "nabla,imp"]
        assert run_cli(argv + ["--samples", "-1"]) == EXIT_ERROR
        assert "samples" in capsys.readouterr().err

    def test_unknown_separator_value_is_an_error(self, capsys):
        assert run_cli(["separators", "--matrix", "bool2", "--pair", "0,7"]) == EXIT_ERROR
        assert capsys.readouterr().err == "pnmatrix: error: unknown value '7'\n"

    def test_separating_a_value_from_itself_is_an_error(self, capsys):
        assert run_cli(["separators", "--matrix", "bool2", "--pair", "0,0"]) == EXIT_ERROR
        assert capsys.readouterr().err == "pnmatrix: error: cannot separate value '0' from itself\n"

    def test_empty_countermodel_is_marked(self, capsys):
        # no premises and no conclusions: the empty assignment is the countermodel
        assert run_cli(["decide", "--matrix", "bool2", "--conclusions", "-"]) == EXIT_NO
        assert capsys.readouterr().out == "no\ncountermodel: (empty)\n"

    def test_negative_max_depth_is_an_error(self, capsys):
        assert run_cli(["monadic", "--matrix", "bool2", "--max-depth", "-1"]) == EXIT_ERROR
        assert "max_depth" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_power_below_one_is_an_error(self, capsys, k):
        argv = ["combine", "--left", "bool2", "--right", "bool2", "--mode", "single"]
        assert run_cli(argv + ["--power", k]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pnmatrix: error: power requires k >= 1\n"

    def test_a_product_past_the_build_bound_is_an_error(self, capsys):
        argv = ["combine", "--left", "neg3", "--right", "sources", "--mode", "single", "--power", "3"]
        assert run_cli(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnmatrix: error: strict product needs more than 2097152 values, table cells and"
            " entry members (at least 1464 values and 4288056 table cells)\n"
        )

    def test_power_in_multiple_mode_is_an_error(self, capsys):
        argv = ["combine", "--left", "bool2", "--right", "bool2", "--mode", "multiple"]
        assert run_cli(argv + ["--power", "2", "--json"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pnmatrix: error: --power applies only to --mode single\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("decide --matrix nope --conclusions p",
             "no such file, and no such fixture: 'nope' (fixtures: bool2, bool2n, "
             "kleene-imp, kleene-ks, luk-imp, luk3, neg3, sources)"),
            ("reduct --matrix bool2 --keep xor", "connective 'xor' not in the matrix signature"),
            ("extend --matrix bool2 --add x", "--add wants NAME/ARITY, got 'x'"),
            ("extend --matrix bool2 --add x/a", "bad arity in 'x/a'"),
            ("decide --matrix bool2 --mode single --conclusions p,q",
             "single mode takes exactly one conclusion"),
            ("check-rules --matrix bool2 --calculus nope",
             "unknown calculus 'nope'; available: bool2n, classical, kleene-ks, sources"),
            ("separators --matrix bool2 --pair 0", "--pair wants two comma-separated values"),
            ("check-rules --matrix kleene-ks --calculus classical",
             "calculus 'classical' uses connectives the matrix lacks: imp/2, top/0"),
            ("check-rules --matrix kleene-ks --calculus classical --json",
             "calculus 'classical' uses connectives the matrix lacks: imp/2, top/0"),
        ],
        ids=["fixture", "connective", "add", "arity", "single", "calculus", "pair",
             "calculus-signature", "calculus-signature-json"],
    )
    def test_argument_errors_name_no_line(self, capsys, argv, message):
        # only errors read from a matrix file have a line number
        assert run_cli(argv.split()) == EXIT_ERROR
        assert capsys.readouterr().err == f"pnmatrix: error: {message}\n"

    def test_check_rules_names_a_connective_of_another_arity(self, tmp_path, capsys):
        path = tmp_path / "neg2"
        path.write_text(format_matrix(rename_connectives(builtin("luk-imp"), {"imp": "neg"})))
        argv = ["check-rules", "--matrix", str(path), "--calculus", "classical"]
        for extra in ([], ["--json"]):
            assert run_cli(argv + extra) == EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "pnmatrix: error: calculus 'classical' uses connectives the matrix lacks: "
                "and/2, imp/2, neg/1 (the matrix has neg/2), or/2, top/0\n"
            )

    def test_check_rules_needs_only_the_connectives_the_rules_use(self, tmp_path, capsys):
        # the bool2n calculus is parsed over botop too, but no rule uses it
        path = tmp_path / "no-botop"
        path.write_text(format_matrix(reduct(builtin("bool2n"), Signature.of(
            {"box": 1, "squig": 2, "pl": 2}))))
        assert run_cli(["check-rules", "--matrix", str(path), "--calculus", "bool2n"]) == EXIT_YES
        assert capsys.readouterr().out == (
            "necessitation: sound\nmodus-ponens: sound\npl-intro: sound\npl-elim: sound\n"
        )

    def test_deeply_nested_formula_decides(self, capsys):
        deep = "neg(" * 1200 + "p" + ")" * 1200
        argv = ["decide", "--matrix", "bool2", "--conclusions", deep]
        assert run_cli(argv) == EXIT_NO
        capsys.readouterr()
        assert run_cli(argv + ["--json"]) == EXIT_NO
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["witness"]["assignment"]) == 1201
        assert payload["witness"]["assignment"][deep] == "0"

    @pytest.mark.parametrize("spec", ["x#y/1", "/1", "a b/2"])
    def test_extend_rejects_unwritable_names(self, tmp_path, capsys, spec):
        out = tmp_path / "f"
        argv = ["extend", "--matrix", "bool2", "--add", spec, "--output", str(out)]
        assert run_cli(argv) == EXIT_ERROR
        assert "cannot be written" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_axiom_depth_below_one_is_an_error(self, capsys, depth):
        argv = ["axiom-derive", "--matrix", "bool2", "--axioms", "imp(p, imp(q, p))",
                "--premises", "p", "--conclusion", "p", "--depth", depth]
        assert run_cli(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnmatrix: error: max_depth must be at least 1, got {depth}\n"

    def test_extend_rejects_two_arities_for_one_name(self, tmp_path, capsys):
        out = tmp_path / "f"
        argv = ["extend", "--matrix", "neg3", "--add", "x/1", "--output", str(out)]
        assert run_cli(argv + ["--add", "x/2"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "pnmatrix: error: connective 'x' declared with arities 1 and 2\n"
        )
        assert not out.exists()
        # the same declaration twice is one declaration
        assert run_cli(argv + ["--add", "x/1"]) == EXIT_YES
        assert read_matrix(out.read_text()).sig == Signature.of({"neg": 1, "x": 1})

    def test_decide_combined_marks_an_empty_side(self, capsys):
        argv = ["decide-combined", "--left", "kleene-imp", "--right", "luk3",
                "--conclusions", "imp(p, q)"]
        assert run_cli(argv) == EXIT_NO
        assert capsys.readouterr().out == (
            "no (not certified)\nfailing partition: - / p, q, imp(p, q)\n"
        )
        assert run_cli(argv + ["--json"]) == EXIT_NO
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness == {"low": [], "high": ["p", "q", "imp(p, q)"]}

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit) as e:
            run_cli([])
        assert e.value.code == EXIT_ERROR


LUK3_DIVERGENCES = [
    f"{q}: matrix says yes, split product says no"
    for q in (
        "neg(nabla(p)) |- neg(p)",
        "neg(p) |- neg(nabla(p))",
        "imp(neg(p), p) |- nabla(p)",
        "nabla(p) |- imp(neg(p), p)",
        "neg(nabla(p)) |- nabla(neg(p))",
        "neg(p) |- imp(nabla(p), p)",
        "imp(nabla(p), neg(p)) |- neg(p)",
        "imp(neg(p), nabla(p)) |- nabla(p)",
        "imp(neg(p), p) |- nabla(nabla(p))",
        "imp(p, neg(p)) |- nabla(neg(p))",
        "imp(p, p) |- imp(p, nabla(p))",
        "nabla(nabla(p)) |- imp(neg(p), p)",
        "nabla(neg(p)) |- imp(p, nabla(p))",
        "nabla(neg(p)) |- imp(p, neg(p))",
        "neg(nabla(p)) |- imp(p, nabla(p))",
    )
]


def split_json(monadic, refuted, verdict, witness):
    """The text ``split-advice --json`` prints at the default 200 samples."""
    lines = ",\n".join(f'    "{w}"' for w in witness)
    return (
        '{\n  "bounds": {\n    "samples": 200\n  },\n  "components": {\n'
        f'    "monadic": {monadic},\n    "samples_run": 200,\n'
        f'    "saturation_refuted": {refuted}\n  }},\n  "verdict": "{verdict}",\n'
        + (f'  "witness": [\n{lines}\n  ]\n}}\n' if witness else '  "witness": []\n}\n')
    )


#: what ``decide --json`` prints for p, neg(p) |- q over kleene-ks, in either mode
KLEENE_KS_NO_JSON = (
    '{\n  "verdict": "no",\n  "witness": {\n    "assignment": {\n'
    '      "neg(p)": "b",\n      "p": "b",\n      "q": "0"\n    },\n'
    '    "component": [\n      "0",\n      "1",\n      "b"\n    ]\n  }\n}\n'
)

KLEENE_KS_INFO_JSON = """\
{
  "components": [
    [
      "0",
      "1",
      "a"
    ],
    [
      "0",
      "1",
      "b"
    ]
  ],
  "verdict": "Pmatrix",
  "witness": {
    "designated": [
      "1",
      "b"
    ],
    "spurious": [],
    "values": [
      "0",
      "a",
      "b",
      "1"
    ]
  }
}
"""

FIXTURES = """\
bool2        matrix    2 values  two-valued truth tables
bool2n       Nmatrix   2 values  two-valued non-deterministic connectives
kleene-imp   matrix    3 values  three-valued weak implication
kleene-ks    Pmatrix   4 values  partial four-valued merge of two three-valued readings
luk-imp      matrix    3 values  three-valued strong implication
luk3         matrix    3 values  three-valued logic with possibility operator
neg3         matrix    3 values  three-valued negation only
sources      Nmatrix   4 values  four-valued aggregation of unreliable information sources
"""

FIXTURES_JSON = """\
{
  "components": [
    {
      "description": "two-valued truth tables",
      "kind": "matrix",
      "known_saturated": true,
      "name": "bool2",
      "values": 2
    },
    {
      "description": "two-valued non-deterministic connectives",
      "kind": "Nmatrix",
      "known_saturated": false,
      "name": "bool2n",
      "values": 2
    },
    {
      "description": "three-valued weak implication",
      "kind": "matrix",
      "known_saturated": false,
      "name": "kleene-imp",
      "values": 3
    },
    {
      "description": "partial four-valued merge of two three-valued readings",
      "kind": "Pmatrix",
      "known_saturated": false,
      "name": "kleene-ks",
      "values": 4
    },
    {
      "description": "three-valued strong implication",
      "kind": "matrix",
      "known_saturated": false,
      "name": "luk-imp",
      "values": 3
    },
    {
      "description": "three-valued logic with possibility operator",
      "kind": "matrix",
      "known_saturated": false,
      "name": "luk3",
      "values": 3
    },
    {
      "description": "three-valued negation only",
      "kind": "matrix",
      "known_saturated": true,
      "name": "neg3",
      "values": 3
    },
    {
      "description": "four-valued aggregation of unreliable information sources",
      "kind": "Nmatrix",
      "known_saturated": true,
      "name": "sources",
      "values": 4
    }
  ],
  "verdict": "ok"
}
"""

LUK3_MONADIC_JSON = """\
{
  "bounds": {
    "max_depth": 3
  },
  "components": [
    {
      "pair": [
        "0",
        "h"
      ],
      "separator": "nabla(p)"
    },
    {
      "pair": [
        "0",
        "1"
      ],
      "separator": "p"
    },
    {
      "pair": [
        "h",
        "1"
      ],
      "separator": "p"
    }
  ],
  "verdict": "monadic"
}
"""

KLEENE_IMP_DEPTH0_JSON = """\
{
  "bounds": {
    "max_depth": 0
  },
  "components": [
    {
      "pair": [
        "0",
        "h"
      ],
      "separator": null
    },
    {
      "pair": [
        "0",
        "1"
      ],
      "separator": "p"
    },
    {
      "pair": [
        "h",
        "1"
      ],
      "separator": "p"
    }
  ],
  "verdict": "not-shown-monadic"
}
"""


CLASSICAL = [
    "truth", "non-contradiction", "excluded-middle", "and-elim-1", "and-elim-2", "and-intro",
    "or-intro-1", "or-intro-2", "or-elim", "imp-cases", "modus-ponens", "imp-intro",
]


def rules_json(verdict, rules):
    """The text ``check-rules --json`` prints for (name, sound) pairs."""
    entries = ",\n".join(
        f'    {{\n      "rule": "{r}",\n      "sound": {s}\n    }}' for r, s in rules
    )
    return f'{{\n  "components": [\n{entries}\n  ],\n  "verdict": "{verdict}"\n}}\n'


class TestSuccessOutput:
    """What the success paths print, byte for byte, with their exit codes."""

    @pytest.mark.parametrize("argv, code, out", [
        ("split-advice --matrix luk3 --first neg,imp --second nabla", EXIT_NO,
         "verdict: unsafe-evidence\n" + "".join(f"{d}\n" for d in LUK3_DIVERGENCES)),
        ("split-advice --matrix luk3 --first neg,imp --second nabla --json", EXIT_NO,
         split_json("false", "true", "unsafe-evidence", LUK3_DIVERGENCES)),
        ("split-advice --matrix kleene-ks --first and,neg --second or,neg", EXIT_YES,
         "verdict: split-safe-multiple\n"),
        ("split-advice --matrix kleene-ks --first and,neg --second or,neg --json", EXIT_YES,
         split_json("true", "true", "split-safe-multiple", [])),
        ("separators --matrix luk3 --pair 0,h", EXIT_YES, "nabla(p)\n"),
        ("separators --matrix luk3 --pair 0,h --json", EXIT_YES,
         '{\n  "verdict": "found",\n  "witness": "nabla(p)"\n}\n'),
        ("decide --matrix kleene-ks --mode single --premises p,neg(p) --conclusions q", EXIT_NO,
         "no\ncountermodel: p -> b, q -> 0, neg(p) -> b\n"),
        ("decide --matrix kleene-ks --mode single --premises p,neg(p) --conclusions q --json",
         EXIT_NO, KLEENE_KS_NO_JSON),
        ("decide --matrix bool2 --mode single --premises p --conclusions p", EXIT_YES, "yes\n"),
        ("decide --matrix kleene-ks --premises p,neg(p) --conclusions q", EXIT_NO,
         "no\ncountermodel: p -> b, q -> 0, neg(p) -> b\n"),
        ("decide --matrix kleene-ks --premises p,neg(p) --conclusions q --json", EXIT_NO,
         KLEENE_KS_NO_JSON),
        ("decide --matrix bool2 --conclusions p,neg(p)", EXIT_YES, "yes\n"),
        ("decide --matrix bool2 --conclusions p,neg(p) --json", EXIT_YES,
         '{\n  "verdict": "yes",\n  "witness": null\n}\n'),
        ("info --matrix kleene-ks", EXIT_YES,
         "kind: Pmatrix\nvalues: 0 a b 1\ndesignated: b 1\n"
         "maximal viable: {0 1 a}, {0 1 b}\nspurious: (none)\n"),
        ("info --matrix kleene-ks --json", EXIT_YES, KLEENE_KS_INFO_JSON),
        ("fixtures", EXIT_YES, FIXTURES),
        ("fixtures --json", EXIT_YES, FIXTURES_JSON),
        ("monadic --matrix luk3", EXIT_YES, "0,h: nabla(p)\n0,1: p\nh,1: p\nmonadic\n"),
        ("monadic --matrix luk3 --json", EXIT_YES, LUK3_MONADIC_JSON),
        ("monadic --matrix kleene-imp --max-depth 0", EXIT_UNKNOWN,
         "0,h: not found\n0,1: p\nh,1: p\nnot shown monadic within bounds\n"),
        ("monadic --matrix kleene-imp --max-depth 0 --json", EXIT_UNKNOWN,
         KLEENE_IMP_DEPTH0_JSON),
        ("check-rules --matrix bool2 --calculus classical", EXIT_YES,
         "".join(f"{r}: sound\n" for r in CLASSICAL)),
        ("check-rules --matrix bool2 --calculus classical --json", EXIT_YES,
         rules_json("all-sound", [(r, "true") for r in CLASSICAL])),
        ("decide-combined --left kleene-imp --right luk-imp --premises imp(p,p)"
         " --conclusions p,imp(p,q)", EXIT_YES, "yes (not certified)\n"),
        ("decide-combined --left kleene-imp --right luk-imp --premises imp(p,p)"
         " --conclusions p,imp(p,q) --json", EXIT_YES,
         '{\n  "components": {\n    "certified": false\n  },\n'
         '  "verdict": "yes",\n  "witness": null\n}\n'),
        ("decide-combined --left kleene-imp --right luk-imp --premises p --conclusions q",
         EXIT_NO, "no (not certified)\nfailing partition: p / q\n"),
        ("decide-combined --left kleene-imp --right luk-imp --premises p --conclusions q --json",
         EXIT_NO,
         '{\n  "components": {\n    "certified": false\n  },\n  "verdict": "no",\n'
         '  "witness": {\n    "high": [\n      "q"\n    ],\n    "low": [\n      "p"\n    ]\n'
         '  }\n}\n'),
        ("axiom-derive --matrix bool2 --axioms imp(p,imp(q,p)) --premises p"
         " --conclusion imp(q,p)", EXIT_YES, "yes\n"),
        ("axiom-derive --matrix bool2 --axioms imp(p,imp(q,p)) --premises p"
         " --conclusion imp(q,p) --json", EXIT_YES,
         '{\n  "bounds": {\n    "depth": 2,\n    "instances": 9\n  },\n  "verdict": "yes"\n}\n'),
        ("axiom-derive --matrix bool2 --axioms imp(p,imp(q,p)) --conclusion q --depth 1",
         EXIT_UNKNOWN, "unknown (no derivation found at this instantiation depth)\n"),
        ("axiom-derive --matrix bool2 --axioms imp(p,imp(q,p)) --conclusion q --depth 1 --json",
         EXIT_UNKNOWN,
         '{\n  "bounds": {\n    "depth": 1,\n    "instances": 1\n  },\n'
         '  "verdict": "unknown"\n}\n'),
    ], ids=[
        "split-unsafe", "split-unsafe-json", "split-safe", "split-safe-json",
        "separator", "separator-json", "single-no", "single-no-json", "single-yes",
        "multiple-no", "multiple-no-json", "multiple-yes", "multiple-yes-json", "info", "info-json",
        "fixtures", "fixtures-json", "monadic", "monadic-json", "not-shown-monadic",
        "not-shown-monadic-json", "check-rules", "check-rules-json", "combined-yes",
        "combined-yes-json", "combined-no", "combined-no-json", "axiom-yes", "axiom-yes-json",
        "axiom-unknown", "axiom-unknown-json",
    ])
    def test_stdout(self, capsys, argv, code, out):
        assert run_cli(argv.split()) == code
        assert capsys.readouterr().out == out

    def test_check_rules_from_a_file(self, tmp_path, capsys):
        rules = tmp_path / "rules"
        rules.write_text("id : p |- p\nbad-lem : - |- p, neg(p)\n")
        argv = ["check-rules", "--matrix", "kleene-ks", "--rules", str(rules)]
        assert run_cli(argv) == EXIT_NO
        assert capsys.readouterr().out == "id: sound\nbad-lem: NOT sound\n"
        assert run_cli(argv + ["--json"]) == EXIT_NO
        assert capsys.readouterr().out == rules_json(
            "unsound", [("id", "true"), ("bad-lem", "false")]
        )


#: ``pnmatrix --help`` and each subcommand's ``--help``: exit code and stdout
#: at 80 columns, as the command line printed them when its imports were all
#: at the top of the module (argparse's layout as of Python 3.11)
HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", list(HELP))
def test_help_is_unchanged(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        run_cli(argv.split())
    assert e.value.code == HELP[argv]["code"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP[argv]["stdout"], "")


class TestJsonOutput:
    def run_json(self, capsys, argv):
        rc = run_cli(argv + ["--json"])
        return rc, json.loads(capsys.readouterr().out)

    def test_decide_countermodel_payload(self, capsys):
        rc, payload = self.run_json(
            capsys,
            [
                "decide",
                "--matrix",
                "kleene-ks",
                "--premises",
                "p, neg(p)",
                "--conclusions",
                "q",
            ],
        )
        assert rc == EXIT_NO
        assert payload["verdict"] == "no"
        assert payload["witness"]["assignment"]["p"] == "b"
        assert set(payload["witness"]["component"]) == {"0", "1", "b"}

    def test_info_payload(self, capsys):
        rc, payload = self.run_json(capsys, ["info", "--matrix", "kleene-ks"])
        assert rc == EXIT_YES
        assert payload["verdict"] == "Pmatrix"
        assert payload["components"] == [["0", "1", "a"], ["0", "1", "b"]]

    def test_fixtures_payload(self, capsys):
        rc, payload = self.run_json(capsys, ["fixtures"])
        assert rc == EXIT_YES
        assert [r["name"] for r in payload["components"]] == sorted(FIXTURE_NAMES)

    def test_monadic_payload(self, capsys):
        rc, payload = self.run_json(capsys, ["monadic", "--matrix", "kleene-ks"])
        assert rc == EXIT_YES
        assert payload["verdict"] == "monadic"
        assert all(r["separator"] for r in payload["components"])

    def test_refuter_payload(self, capsys):
        rc, payload = self.run_json(
            capsys, ["refute-saturation", "--matrix", "bool2"]
        )
        assert rc == EXIT_NO
        assert payload["verdict"] == "refuted"
        assert payload["witness"]["phi"]


class TestFileCommands:
    def test_product_then_decide_from_file(self, tmp_path, capsys):
        out = tmp_path / "product.matrix"
        rc = run_cli(
            [
                "product",
                "--left",
                "kleene-imp",
                "--right",
                "luk-imp",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_YES
        expected = strict_product(builtin("kleene-imp"), builtin("luk-imp"))
        assert read_matrix(out.read_text()) == expected
        rc = run_cli(
            [
                "decide",
                "--matrix",
                str(out),
                "--premises",
                "imp(p, p)",
                "--conclusions",
                "p, imp(p, q)",
            ]
        )
        assert rc == EXIT_YES

    def test_sum_command(self, tmp_path):
        out = tmp_path / "sum.matrix"
        rc = run_cli(
            ["sum", "--matrix", "neg3", "--matrix", "neg3", "--output", str(out)]
        )
        assert rc == EXIT_YES
        expected = sum_matrices([builtin("neg3"), builtin("neg3")])
        assert read_matrix(out.read_text()) == expected

    def test_power_combination_then_info(self, tmp_path, capsys):
        out = tmp_path / "combined.matrix"
        argv = ["combine", "--left", "kleene-imp", "--right", "luk-imp"]
        rc = run_cli(argv + ["--mode", "single", "--power", "2", "--output", str(out)])
        assert rc == EXIT_YES
        assert run_cli(["info", "--matrix", str(out), "--json"]) == EXIT_YES
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["witness"]["values"]) == 65
        assert len(payload["components"]) == 20

    def test_reduct_to_no_connectives_then_info(self, tmp_path, capsys):
        out = tmp_path / "empty.matrix"
        assert run_cli(["reduct", "--matrix", "bool2", "--keep", ",", "--output", str(out)]) == EXIT_YES
        assert out.read_text() == "signature:\nvalues: 0 1\ndesignated: 1\n"
        capsys.readouterr()
        assert run_cli(["info", "--matrix", str(out)]) == EXIT_YES
        assert capsys.readouterr().out.startswith("kind: matrix\nvalues: 0 1\n")

    def test_reduct_and_prune(self, tmp_path, capsys):
        rc = run_cli(["reduct", "--matrix", "luk3", "--keep", "imp"])
        assert rc == EXIT_YES
        text = capsys.readouterr().out
        m = read_matrix(text)
        assert set(dict(m.sig)) == {"imp"}

    def test_rule_file_loading(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("id : p |- p\nbad-lem : - |- p, neg(p)\n")
        rc = run_cli(["check-rules", "--matrix", "kleene-ks", "--rules", str(rules)])
        assert rc == EXIT_NO
        rules.write_text("id : p |- p\n")
        rc = run_cli(["check-rules", "--matrix", "kleene-ks", "--rules", str(rules)])
        assert rc == EXIT_YES

    def test_builtin_calculus_check(self):
        rc = run_cli(["check-rules", "--matrix", "bool2", "--calculus", "classical"])
        assert rc == EXIT_YES

    def test_axiom_derive(self):
        rc = run_cli(
            [
                "axiom-derive",
                "--matrix",
                "bool2",
                "--axioms",
                "imp(p, imp(q, p))",
                "--conclusion",
                "imp(p, imp(q, p))",
            ]
        )
        assert rc == EXIT_YES

    def test_decide_combined(self):
        rc = run_cli(
            [
                "decide-combined",
                "--left",
                "kleene-imp",
                "--right",
                "luk-imp",
                "--premises",
                "imp(p, p)",
                "--conclusions",
                "p, imp(p, q)",
            ]
        )
        assert rc == EXIT_YES


NEG3_SQUARED = """\
signature:
  neg 1
values: 0&0 0&h 0&1 h&0 h&h h&1 1&0 1&h 1&1
designated: 1&1
table neg:
  0&0 : 1&1
  0&h : 1&h
  0&1 : 1&0
  h&0 : h&1
  h&h : h&h
  h&1 : h&0
  1&0 : 0&1
  1&h : 0&h
  1&1 : 0&0
"""

NEG3_PRODUCT = """\
signature:
  neg 1
values: 0|0 0|h h|0 h|h 1|1
designated: 1|1
table neg:
  0|0 : 1|1
  0|h : -
  h|0 : -
  h|h : h|h
  1|1 : 0|0
"""

#: a matrix file with a blank line, a comment line, a trailing comment and
#: a value x that no valuation can use
SPURIOUS_X = """\
signature:
  neg 1

# x has no negation
values: 0 1 x
designated: 1  # the true value
table neg:
  0 : 1
  1 : 0
  x : -
"""

REFUSED = (
    "left input is not saturated (witness: - |- p, nabla(neg(p))); "
    "its single-conclusion logic is not captured by the product"
)


def verdict_json(verdict, witness=None):
    """The text ``--json`` prints for a payload of a verdict and maybe a witness."""
    if witness is None:
        return f'{{\n  "verdict": "{verdict}"\n}}\n'
    return f'{{\n  "verdict": "{verdict}",\n  "witness": "{witness}"\n}}\n'


class TestMatrixFileLines:
    def test_blank_and_comment_lines_are_skipped(self):
        m = read_matrix(SPURIOUS_X)
        assert m.values == ("0", "1", "x") and m.designated == {"1"}
        assert m == read_matrix(SPURIOUS_X.replace("\n\n", "\n").replace("# x has no negation\n", ""))


class TestMatrixCommandOutput:
    """The success paths of ``parse``, ``power``, ``prune`` and ``combine``,
    byte for byte: stdout, the exit code and any file written."""

    @pytest.mark.parametrize("argv, code, out", [
        (["parse", "--matrix", "luk3", "--formula", "imp( p ,nabla(q))"], EXIT_YES,
         "imp(p, nabla(q))\n"),
        (["parse", "--matrix", "luk3", "--formula", "imp( p ,nabla(q))", "--json"], EXIT_YES,
         '{\n  "verdict": "ok",\n  "witness": "imp(p, nabla(q))"\n}\n'),
        (["power", "--matrix", "neg3", "--exponent", "2"], EXIT_YES, NEG3_SQUARED),
        (["combine", "--left", "neg3", "--right", "neg3"], EXIT_YES, NEG3_PRODUCT),
        (["combine", "--left", "neg3", "--right", "neg3", "--json"], EXIT_YES,
         verdict_json("exact")),
        (["combine", "--left", "neg3", "--right", "neg3", "--mode", "single"], EXIT_YES,
         NEG3_PRODUCT),
        (["combine", "--left", "luk3", "--right", "bool2", "--mode", "single"], EXIT_NO,
         f"refused: {REFUSED}\n"),
        (["combine", "--left", "luk3", "--right", "bool2", "--mode", "single", "--json"], EXIT_NO,
         verdict_json("refused", REFUSED)),
    ], ids=[
        "parse", "parse-json", "power", "combine-multiple", "combine-multiple-json",
        "combine-single-known", "combine-refused", "combine-refused-json",
    ])
    def test_stdout(self, capsys, argv, code, out):
        assert run_cli(argv) == code
        assert capsys.readouterr().out == out

    def test_power_writes_its_file(self, tmp_path, capsys):
        out = tmp_path / "square"
        argv = ["power", "--matrix", "neg3", "--exponent", "2", "--output", str(out)]
        assert run_cli(argv) == EXIT_YES
        assert capsys.readouterr().out == ""
        assert out.read_text() == NEG3_SQUARED

    def test_prune_drops_the_unusable_value(self, tmp_path, capsys):
        source, out = tmp_path / "spurious", tmp_path / "pruned"
        source.write_text(SPURIOUS_X)
        pruned = "signature:\n  neg 1\nvalues: 0 1\ndesignated: 1\ntable neg:\n  0 : 1\n  1 : 0\n"
        assert run_cli(["prune", "--matrix", str(source)]) == EXIT_YES
        assert capsys.readouterr().out == pruned
        assert run_cli(["prune", "--matrix", str(source), "--output", str(out)]) == EXIT_YES
        assert capsys.readouterr().out == ""
        assert out.read_text() == pruned

    def test_single_mode_over_a_matrix_file_is_conditional(self, tmp_path, capsys):
        # a matrix read from a file carries no saturation flag, so the
        # refuter runs on it and finds nothing within its bounds
        source, out = tmp_path / "neg3", tmp_path / "combined"
        source.write_text(format_matrix(builtin("neg3")))
        argv = ["combine", "--left", str(source), "--right", "neg3", "--mode", "single"]
        assert run_cli(argv + ["--json", "--output", str(out)]) == EXIT_YES
        assert capsys.readouterr().out == verdict_json("conditional-on-saturation")
        assert out.read_text() == NEG3_PRODUCT


class TestRefuterOutput:
    """``refute-saturation``'s human output on every fixture."""

    @pytest.mark.parametrize("name, code, out", [
        ("bool2", EXIT_NO, "not saturated: - |- p, neg(p)"),
        ("bool2n", EXIT_NO, "not saturated: pl(botop, p) |- botop, p"),
        ("kleene-imp", EXIT_NO, "not saturated: imp(p, p) |- p, imp(p, q)"),
        ("kleene-ks", EXIT_NO, "not saturated: p, neg(p) |- q, neg(q)"),
        ("luk-imp", EXIT_NO, "not saturated: - |- imp(p, q), imp(q, p)"),
        ("luk3", EXIT_NO, "not saturated: - |- p, nabla(neg(p))"),
        ("neg3", EXIT_UNKNOWN, "no counterexample within bounds"),
        ("sources", EXIT_UNKNOWN, "no counterexample within bounds"),
    ])
    def test_stdout(self, capsys, name, code, out):
        assert run_cli(["refute-saturation", "--matrix", name]) == code
        assert capsys.readouterr().out == out + "\n"
