"""The package, its command line and the demo scripts, each in a fresh interpreter."""

import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def test_import_does_not_load_the_cli():
    proc = run_python(
        "-c",
        "import sys, pnmatrix\n"
        "print([m for m in ('pnmatrix.cli_io', 'argparse', 'json') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_names_resolve_on_first_use():
    proc = run_python(
        "-c",
        "import pnmatrix\n"
        "print(pnmatrix.run_cli.__module__)\n"
        "print(pnmatrix.EXIT_ERROR)\n"
        "print(pnmatrix.cli_io.builtin('bool2').values)\n"
        "print('run_cli' in pnmatrix.__all__, hasattr(pnmatrix, 'no_such_name'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pnmatrix.cli_io", "3", "('0', '1')", "False False"]


def test_an_unknown_name_is_an_attribute_error():
    import pnmatrix

    with pytest.raises(AttributeError) as e:
        pnmatrix.no_such_name
    assert str(e.value) == "module 'pnmatrix' has no attribute 'no_such_name'"


def test_import_loads_no_submodule():
    proc = run_python(
        "-c", "import sys, pnmatrix\nprint([m for m in sys.modules if m.startswith('pnmatrix.')])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


#: the public names of the package, by the module that defines them, as
#: ``__init__`` imported them before it resolved them on first use
EXPORTS = {
    "syntax": (
        "App", "Formula", "MonolithMap", "ParseError", "Signature", "Substitution", "Var",
        "apply_substitution", "formula_key", "formula_size", "parse_formula",
        "parse_formula_list", "print_formula", "skeleton", "subformula_closure",
        "subformulas", "variables", "well_formed",
    ),
    "matrix_core": (
        "FormatError", "MatrixError", "PNMatrix", "ValueMap", "ViabilityReport",
        "check_strict_hom", "classify", "extend", "format_matrix", "inclusion",
        "make_matrix", "power", "projection", "prune", "read_matrix", "reduct",
        "rename_connectives", "restrict", "strict_product", "sum_matrices", "validate",
        "viable_components",
    ),
    "engine": (
        "Countermodel", "Verdict", "check_countermodel", "decide_batch", "decide_multiple",
        "decide_single", "possible_value_vector", "possible_values",
    ),
    "calculus": (
        "Calculus", "Rule", "SoundnessReport", "calculus_sound", "format_calculus",
        "parse_calculus", "parse_rule", "rule_sound",
    ),
    "analysis": (
        "Divergence", "RefutationBounds", "RefutationResult", "SaturationWitness",
        "SeparatorBounds", "SeparatorTable", "SplitVerdict", "check_saturation_witness",
        "find_separator", "formula_pool", "monadicity_report", "refute_saturation",
        "split_advice",
    ),
    "combine": (
        "AxiomDecision", "AxiomSet", "CombinedDecision", "CombinedLogic", "SaturationRefused",
        "axiom_instances", "combine_multiple", "combine_single_power",
        "combine_single_saturated", "decide_combined_ctx", "decide_with_axioms",
    ),
    "fixtures": ("builtin", "builtin_calculus", "calculus_names", "fixture_names"),
}
#: ``pnmatrix.__all__``: the names above and the seven module names, sorted
ALL = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])


def test_the_package_surface_before_first_use():
    proc = run_python(
        "-c",
        "import json, sys, pnmatrix\n"
        "names, listed = pnmatrix.__all__, dir(pnmatrix)\n"
        "from pnmatrix import combine, matrix_core\n"
        "print(json.dumps([names, listed, combine.CTX_CAP, matrix_core.__name__]))",
    )
    assert proc.returncode == 0, proc.stderr
    names, listed, cap, name = json.loads(proc.stdout)
    assert len(ALL) == 91
    assert names == ALL
    assert set(ALL) <= set(listed)
    assert (cap, name) == (12, "pnmatrix.matrix_core")


def test_each_name_is_its_modules_object():
    import pnmatrix

    for module, names in EXPORTS.items():
        home = importlib.import_module(f"pnmatrix.{module}")
        assert getattr(pnmatrix, module) is home
        for n in names:
            assert getattr(pnmatrix, n) is getattr(home, n), n
    star = {}
    exec("from pnmatrix import *", star)
    del star["__builtins__"]
    assert sorted(star) == ALL
    assert all(star[n] is getattr(pnmatrix, n) for n in ALL)


#: what `python -m pnmatrix.cli_io ARGV` imports of the package, read at exit
LOADED = """\
import runpy, sys
sys.argv[0] = 'pnmatrix'
try:
    runpy.run_module('pnmatrix.cli_io', run_name='__main__')
except SystemExit as e:
    code = e.code
print(code, *sorted(m for m in sys.modules if m.startswith('pnmatrix.')))
"""

BASE = "pnmatrix.fixtures pnmatrix.matrix_core pnmatrix.syntax"


@pytest.mark.parametrize("argv, loaded", [
    ("fixtures", f"0 {BASE}"),
    ("parse --matrix bool2 --formula neg(p)", f"0 {BASE}"),
    ("info --matrix kleene-ks", f"0 {BASE}"),
    ("product --left bool2 --right bool2", f"0 {BASE}"),
    ("sum --matrix bool2 --matrix bool2", f"0 {BASE}"),
    ("power --matrix bool2 --exponent 2", f"0 {BASE}"),
    ("extend --matrix bool2 --add x/1", f"0 {BASE}"),
    ("reduct --matrix bool2 --keep neg", f"0 {BASE}"),
    ("prune --matrix kleene-ks", f"0 {BASE}"),
    ("decide --matrix bool2 --conclusions p", f"1 pnmatrix.engine {BASE}"),
    ("check-rules --matrix bool2 --calculus classical",
     f"0 pnmatrix.calculus pnmatrix.engine {BASE}"),
    ("decide-combined --left kleene-imp --right luk-imp --premises p --conclusions q",
     f"1 pnmatrix.combine pnmatrix.engine {BASE}"),
    ("axiom-derive --matrix bool2 --axioms imp(p,imp(q,p)) --premises p --conclusion imp(q,p)",
     f"0 pnmatrix.combine pnmatrix.engine {BASE}"),
    ("combine --left bool2 --right kleene-imp", f"0 pnmatrix.combine pnmatrix.engine {BASE}"),
    ("combine --left bool2 --right bool2n --mode single",
     f"1 pnmatrix.analysis pnmatrix.combine pnmatrix.engine {BASE}"),
    ("monadic --matrix luk3", f"0 pnmatrix.analysis pnmatrix.engine {BASE}"),
], ids=[
    "fixtures", "parse", "info", "product", "sum", "power", "extend", "reduct", "prune",
    "decide", "check-rules", "decide-combined", "axiom-derive", "combine-multiple",
    "combine-single", "monadic",
])
def test_a_subcommand_loads_only_the_modules_it_calls(argv, loaded):
    proc = run_python("-c", LOADED, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == loaded


def test_module_entry_point_runs_quietly():
    proc = run_python("-m", "pnmatrix.cli_io", "decide", "--matrix", "bool2", "--conclusions", "p")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout == "no\ncountermodel: p -> 0\n"


#: the exact output of the scripts whose output is pinned
STDOUT = {
    "product_pipeline.py": [
        "product kind: Pmatrix",
        "maximal viable sets: [['0|0', '1|1'], ['0|h', '1|1']]",
        "spurious values:     ['h|0', 'h|h']",
        "",
        "pruned product:",
        "signature:",
        "  imp 2",
        "values: 0|0 0|h 1|1",
        "designated: 1|1",
        "table imp:",
        "  0|0 0|0 : 1|1",
        "  0|0 0|h : 1|1",
        "  0|0 1|1 : 1|1",
        "  0|h 0|0 : -",
        "  0|h 0|h : 1|1",
        "  0|h 1|1 : 1|1",
        "  1|1 0|0 : 0|0",
        "  1|1 0|h : 0|h",
        "  1|1 1|1 : 1|1",
        "",
        "imp(p, p)          |- p, imp(p, q)             yes",
        "-                  |- imp(p, p)                yes",
        "p, imp(p, q)       |- q                        yes",
        "-                  |- imp(p, q), imp(q, p)     yes",
    ],
    "saturation_survey.py": [
        "bool2        matrix    monadic=yes   saturation: refuted (- |- p, neg(p))",
        "bool2n       Nmatrix   monadic=yes   saturation: refuted (pl(botop, p) |- botop, p)",
        "kleene-imp   matrix    monadic=yes   saturation: refuted (imp(p, p) |- p, imp(p, q))",
        "kleene-ks    Pmatrix   monadic=yes   saturation: refuted (p, neg(p) |- q, neg(q))",
        "luk-imp      matrix    monadic=not shown   saturation: refuted (- |- imp(p, q), imp(q, p))",
        "luk3         matrix    monadic=yes   saturation: refuted (- |- p, nabla(neg(p)))",
        "neg3         matrix    monadic=yes   saturation: no witness found",
        "sources      Nmatrix   monadic=yes   saturation: no witness found",
    ],
    "split_advisor.py": [
        "split {neg, imp} / {nabla}",
        "  verdict: unsafe-evidence",
        "  monadic: False   saturation refuted: True   samples: 200",
        "  divergence: neg(nabla(p)) |- neg(p): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|0, neg(nabla(p)) -> 1|1",
        "  divergence: neg(p) |- neg(nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> 0|0, nabla(p) -> h|0, neg(p) -> 1|1, neg(nabla(p)) -> h|0",
        "  divergence: imp(neg(p), p) |- nabla(p): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|0, imp(neg(p), p) -> 1|1",
        "  divergence: nabla(p) |- imp(neg(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, imp(neg(p), p) -> 0|0",
        "  divergence: neg(nabla(p)) |- nabla(neg(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|0, nabla(neg(p)) -> 0|0, neg(nabla(p)) -> 1|1",
        "  divergence: neg(p) |- imp(nabla(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|0, nabla(p) -> h|0, neg(p) -> 1|1, imp(nabla(p), p) -> h|0",
        "  divergence: imp(nabla(p), neg(p)) |- neg(p): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|0, imp(nabla(p), neg(p)) -> 1|1",
        "  divergence: imp(neg(p), nabla(p)) |- nabla(p): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> h|0, neg(p) -> h|0, imp(neg(p), nabla(p)) -> 1|1",
        "  divergence: imp(neg(p), p) |- nabla(nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|0, nabla(nabla(p)) -> 0|0, imp(neg(p), p) -> 1|1",
        "  divergence: imp(p, neg(p)) |- nabla(neg(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, neg(p) -> h|0, nabla(neg(p)) -> 0|0, imp(p, neg(p)) -> 1|1",
        "  divergence: imp(p, p) |- imp(p, nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, imp(p, p) -> 1|1, imp(p, nabla(p)) -> h|0",
        "  divergence: nabla(nabla(p)) |- imp(neg(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, nabla(nabla(p)) -> 1|1, imp(neg(p), p) -> 0|0",
        "  divergence: nabla(neg(p)) |- imp(p, nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(p) -> h|h, nabla(neg(p)) -> 1|1, imp(p, nabla(p)) -> h|0",
        "  divergence: nabla(neg(p)) |- imp(p, neg(p)): matrix says yes, split product says no",
        "    product countermodel: p -> 1|1, neg(p) -> 0|h, nabla(neg(p)) -> 1|1, imp(p, neg(p)) -> 0|0",
        "  divergence: neg(nabla(p)) |- imp(p, nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> h|0, nabla(p) -> 0|0, neg(nabla(p)) -> 1|1, imp(p, nabla(p)) -> h|0",
        "",
        "split {neg, imp} / {nabla, imp}",
        "  verdict: unsafe-evidence",
        "  monadic: False   saturation refuted: True   samples: 200",
        "  divergence: neg(p) |- neg(nabla(p)): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, neg(nabla(p)) -> 0|h",
        "  divergence: nabla(p) |- imp(neg(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, imp(neg(p), p) -> 0|h",
        "  divergence: neg(p) |- imp(nabla(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, imp(nabla(p), p) -> 0|h",
        "  divergence: nabla(nabla(p)) |- imp(neg(p), p): matrix says yes, split product says no",
        "    product countermodel: p -> 0|h, nabla(p) -> 1|1, neg(p) -> 1|1, nabla(nabla(p)) -> 1|1, imp(neg(p), p) -> 0|h",
        "  divergence: nabla(neg(p)) |- imp(p, neg(p)): matrix says yes, split product says no",
        "    product countermodel: p -> 1|1, neg(p) -> 0|h, nabla(neg(p)) -> 1|1, imp(p, neg(p)) -> 0|h",
        "",
        "split {and, neg} / {or, neg}",
        "  verdict: split-safe-multiple",
        "  monadic: True   saturation refuted: True   samples: 200",
        "",
    ],
}


@pytest.mark.parametrize(
    "script", ["product_pipeline.py", "saturation_survey.py", "split_advisor.py"]
)
def test_script_runs(script):
    proc = run_python(str(ROOT / "scripts" / script))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout
    if script in STDOUT:
        assert proc.stdout.splitlines() == STDOUT[script]


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index(f"\n## {section}\n"):]
    start = after.index(f"```{language}\n") + len(language) + 4
    return after[start:after.index("```", start)]


def test_readme_quick_start_prints_its_answer():
    proc = run_python("-c", readme_block("Library quick start", "python"))
    assert proc.stderr == ""
    assert proc.stdout == "yes\n"


def test_readme_cli_examples_run(tmp_path):
    """Every ``pnmatrix`` line of the README's CLI block runs, in order in one
    directory, and answers without an error."""
    lines = readme_block("Command-line tool", "sh").replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        name, *argv = shlex.split(line)
        assert name == "pnmatrix"
        proc = run_python("-m", "pnmatrix.cli_io", *argv, cwd=tmp_path)
        assert proc.returncode in (0, 1, 2) and proc.stderr == "", (line, proc.stderr)
