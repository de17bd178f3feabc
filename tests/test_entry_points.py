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


def test_module_entry_point_runs_quietly():
    proc = run_python("-m", "pnmatrix.cli_io", "decide", "--matrix", "bool2", "--conclusions", "p")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout == "no\ncountermodel: p -> 0\n"


#: the exact output of the scripts whose output is pinned
STDOUT = {
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
