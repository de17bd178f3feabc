"""The package, its command line and the demo scripts, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
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
