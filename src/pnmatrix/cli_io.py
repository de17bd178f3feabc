"""The ``pnmatrix`` command line: one subcommand per library operation.

Run it as ``pnmatrix`` or ``python -m pnmatrix.cli_io``.  ``import pnmatrix``
does not load this module; ``pnmatrix.run_cli`` and the ``EXIT_*`` codes load
it on first use.  Each subcommand is a function of the parsed arguments that
returns the exit code; ``build_parser`` binds it to its subparser.

This module loads only matrices, formulas and fixtures.  A subcommand that
decides, checks rules, analyses or combines imports ``engine``, ``calculus``,
``analysis`` or ``combine`` when it runs, so that a process pays only for the
layers its command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional, Sequence

from .fixtures import builtin, builtin_calculus, fixture_names
from .matrix_core import (
    PNMatrix,
    classify,
    extend,
    format_matrix,
    power,
    prune,
    read_matrix,
    reduct,
    strict_product,
    sum_matrices,
    viable_components,
)
from .syntax import (
    Signature,
    parse_formula,
    parse_formula_list,
    print_formula,
    print_formula_list,
    print_formulas,
    subformulas,
)

#: the description ``pnmatrix --help`` prints
_DESCRIPTION = """Build, combine, analyse and query PNmatrices from the command line.

Wherever a command takes a matrix, give a matrix file or the name of a
builtin fixture (`pnmatrix fixtures` lists them).  `--json` switches every
command to machine-readable output.  Exit codes: 0 yes / success, 1 no /
refuted, 2 unknown or not found within bounds, 3 usage or input error.
"""

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2, reserved here
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_matrix(ref: str) -> PNMatrix:
    """A matrix reference is a file path or a builtin fixture name."""
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return read_matrix(fh.read())
    try:
        return builtin(ref)
    except KeyError:
        raise ValueError(
            f"no such file, and no such fixture: {ref!r} "
            f"(fixtures: {', '.join(fixture_names())})"
        ) from None


def _parse_sub_sig(spec: str, sig: Signature) -> Signature:
    names = [n.strip() for n in spec.split(",") if n.strip()]
    pairs = {}
    for n in names:
        if n not in sig:
            raise ValueError(f"connective {n!r} not in the matrix signature")
        pairs[n] = sig.arity(n)
    return Signature.of(pairs)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cm_json(v) -> Optional[dict]:
    if v is None:
        return None
    texts = print_formulas(f for f, _ in v.assignment)
    return {
        "assignment": {t: x for t, (_, x) in zip(texts, v.assignment)},
        "component": sorted(v.component),
    }


def _output_matrix(args, m: PNMatrix) -> None:
    text = format_matrix(m)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fixtures(args) -> int:
    rows = []
    for name in fixture_names():
        m = builtin(name)
        rows.append(
            {
                "name": name,
                "kind": classify(m),
                "values": len(m.values),
                "known_saturated": bool(m.meta.get("known_saturated")),
                "description": m.meta.get("description", ""),
            }
        )
    _emit(
        args,
        {"verdict": "ok", "components": rows},
        "\n".join(
            f"{r['name']:12} {r['kind']:9} {r['values']} values  {r['description']}"
            for r in rows
        ),
    )
    return EXIT_YES


def _parse(args) -> int:
    m = _load_matrix(args.matrix)
    f = parse_formula(args.formula, m.sig)
    _emit(args, {"verdict": "ok", "witness": print_formula(f)}, print_formula(f))
    return EXIT_YES


def _info(args) -> int:
    m = _load_matrix(args.matrix)
    report = viable_components(m)
    payload = {
        "verdict": classify(m),
        "components": [sorted(w) for w in report.maximal],
        "witness": {
            "values": list(m.values),
            "designated": sorted(m.designated),
            "spurious": sorted(report.spurious),
        },
    }
    human = (
        f"kind: {classify(m)}\n"
        f"values: {' '.join(m.values)}\n"
        f"designated: {' '.join(v for v in m.values if v in m.designated)}\n"
        f"maximal viable: {', '.join('{' + ' '.join(sorted(w)) + '}' for w in report.maximal)}\n"
        f"spurious: {' '.join(sorted(report.spurious)) or '(none)'}"
    )
    _emit(args, payload, human)
    return EXIT_YES


def _writes_matrix(build: Callable[..., PNMatrix]) -> Callable[..., int]:
    """The subcommand that writes the matrix ``build(args)`` returns."""

    def run(args) -> int:
        _output_matrix(args, build(args))
        return EXIT_YES

    return run


def _product(args) -> PNMatrix:
    return strict_product(_load_matrix(args.left), _load_matrix(args.right))


def _sum(args) -> PNMatrix:
    return sum_matrices([_load_matrix(r) for r in args.matrix])


def _power(args) -> PNMatrix:
    return power(_load_matrix(args.matrix), args.exponent)


def _extend(args) -> PNMatrix:
    m = _load_matrix(args.matrix)
    added = Signature()
    for spec in args.add:
        if "/" not in spec:
            raise ValueError(f"--add wants NAME/ARITY, got {spec!r}")
        name, _, arity = spec.partition("/")
        if not arity.isdigit():
            raise ValueError(f"bad arity in {spec!r}")
        added = added.union(Signature.of({name: int(arity)}))  # raises on a second arity
    return extend(m, m.sig.union(added))


def _reduct(args) -> PNMatrix:
    m = _load_matrix(args.matrix)
    return reduct(m, _parse_sub_sig(args.keep, m.sig))


def _prune(args) -> PNMatrix:
    return prune(_load_matrix(args.matrix))


def _decide(args) -> int:
    from .engine import decide_multiple, decide_single

    m = _load_matrix(args.matrix)
    gamma = parse_formula_list(args.premises, m.sig)
    delta = parse_formula_list(args.conclusions, m.sig)
    if args.mode == "single":
        if len(delta) != 1:
            raise ValueError("single mode takes exactly one conclusion")
        v = decide_single(m, gamma, delta[0])
    else:
        v = decide_multiple(m, gamma, delta)
    payload = {"verdict": v.answer, "witness": _cm_json(v.countermodel)}
    human = v.answer
    if v.countermodel is not None:
        human += "\ncountermodel: " + (v.countermodel.pretty() or "(empty)")
    _emit(args, payload, human)
    return EXIT_YES if v.answer == "yes" else EXIT_NO


def _check_rules(args) -> int:
    from .calculus import Calculus, calculus_sound, parse_calculus

    m = _load_matrix(args.matrix)
    if args.rules:
        with open(args.rules, encoding="utf-8") as fh:
            cal = parse_calculus(fh.read(), m.sig)
    else:
        try:
            cal = builtin_calculus(args.calculus)
        except KeyError as e:
            raise ValueError(e.args[0]) from None
        used = Signature.of(
            (g.head, len(g.args))
            for r in cal.rules
            for f in r.premises + r.conclusions
            for g in subformulas(f)
            if g.head is not None
        )
        have = dict(m.sig)
        misfits = [
            f"{n}/{k}" + (f" (the matrix has {n}/{have[n]})" if n in have else "")
            for n, k in used
            if have.get(n) != k
        ]
        if misfits:
            raise ValueError(
                f"calculus {args.calculus!r} uses connectives the matrix lacks: "
                + ", ".join(misfits)
            )
        cal = Calculus(sig=m.sig, rules=cal.rules)
    report = calculus_sound(m, cal)
    payload = {
        "verdict": "all-sound" if report.all_sound else "unsound",
        "components": [
            {"rule": r.name, "sound": v.answer == "yes"}
            for r, v in report.per_rule
        ],
    }
    lines = [
        f"{r.name}: {'sound' if v.answer == 'yes' else 'NOT sound'}"
        for r, v in report.per_rule
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_YES if report.all_sound else EXIT_NO


def _separators(args) -> int:
    from .analysis import SeparatorBounds, find_separator

    m = _load_matrix(args.matrix)
    pair = [x.strip() for x in args.pair.split(",")]
    if len(pair) != 2:
        raise ValueError("--pair wants two comma-separated values")
    target = reduct(m, _parse_sub_sig(args.subsignature, m.sig)) if args.subsignature else m
    bounds = SeparatorBounds(max_depth=args.max_depth)
    f = find_separator(target, pair[0], pair[1], bounds=bounds)
    if f is None:
        _emit(
            args,
            {"verdict": "not-found", "bounds": {"max_depth": args.max_depth}},
            "not found within bounds",
        )
        return EXIT_UNKNOWN
    _emit(args, {"verdict": "found", "witness": print_formula(f)}, print_formula(f))
    return EXIT_YES


def _monadic(args) -> int:
    from .analysis import SeparatorBounds, monadicity_report

    m = _load_matrix(args.matrix)
    sub_sig = _parse_sub_sig(args.subsignature, m.sig) if args.subsignature else None
    table = monadicity_report(m, sub_sig, bounds=SeparatorBounds(max_depth=args.max_depth))
    payload = {
        "verdict": "monadic" if table.monadic else "not-shown-monadic",
        "components": [
            {"pair": list(p), "separator": None if f is None else print_formula(f)}
            for p, f in table.pairs
        ],
        "bounds": {"max_depth": args.max_depth},
    }
    lines = [
        f"{x},{y}: {print_formula(f) if f is not None else 'not found'}"
        for (x, y), f in table.pairs
    ]
    lines.append("monadic" if table.monadic else "not shown monadic within bounds")
    _emit(args, payload, "\n".join(lines))
    return EXIT_YES if table.monadic else EXIT_UNKNOWN


def _refute_saturation(args) -> int:
    from .analysis import refute_saturation

    m = _load_matrix(args.matrix)
    result = refute_saturation(m)
    bounds = result.bounds.__dict__
    if result.refuted:
        _emit(
            args,
            {
                "verdict": "refuted",
                "witness": {
                    "gamma0": [print_formula(f) for f in result.witness.gamma0],
                    "phi": [print_formula(f) for f in result.witness.phi],
                },
                "bounds": bounds,
            },
            f"not saturated: {result.witness.pretty()}",
        )
        return EXIT_NO
    _emit(
        args,
        {"verdict": "none-found", "witness": None, "bounds": bounds},
        "no counterexample within bounds",
    )
    return EXIT_UNKNOWN


def _split_advice(args) -> int:
    from .analysis import split_advice

    m = _load_matrix(args.matrix)
    sig1 = _parse_sub_sig(args.first, m.sig)
    sig2 = _parse_sub_sig(args.second, m.sig)
    sv = split_advice(m, sig1, sig2, samples=args.samples)
    payload = {
        "verdict": sv.verdict,
        "witness": [d.pretty() for d in sv.divergences],
        "components": {
            "monadic": sv.separators.monadic,
            "saturation_refuted": sv.saturation.refuted,
            "samples_run": sv.samples_run,
        },
        "bounds": {"samples": args.samples},
    }
    lines = [f"verdict: {sv.verdict}"]
    lines += [d.pretty() for d in sv.divergences]
    _emit(args, payload, "\n".join(lines))
    if sv.verdict == "unsafe-evidence":
        return EXIT_NO
    if sv.verdict == "inconclusive":
        return EXIT_UNKNOWN
    return EXIT_YES


def _combine(args) -> int:
    from .combine import (
        SaturationRefused,
        combine_multiple,
        combine_single_power,
        combine_single_saturated,
    )

    if args.mode == "multiple" and args.power is not None:
        raise ValueError("--power applies only to --mode single")
    left, right = _load_matrix(args.left), _load_matrix(args.right)
    if args.mode == "multiple":
        combined = combine_multiple(left, right)
    elif args.power is not None:
        combined = combine_single_power(left, right, args.power)
    else:
        try:
            combined = combine_single_saturated(left, right)
        except SaturationRefused as e:
            _emit(args, {"verdict": "refused", "witness": str(e)}, f"refused: {e}")
            return EXIT_NO
    if not args.json or args.output:
        _output_matrix(args, combined.product)
    if args.json:
        print(json.dumps({"verdict": combined.status}, indent=2))
    return EXIT_YES


def _decide_combined(args) -> int:
    from .combine import decide_combined_ctx

    left, right = _load_matrix(args.left), _load_matrix(args.right)
    union = left.sig.union(right.sig)
    gamma = parse_formula_list(args.premises, union)
    delta = parse_formula_list(args.conclusions, union)
    extra = parse_formula_list(args.context, union)
    decision = decide_combined_ctx(
        left, right, gamma, delta, mode=args.mode, ctx_extra=extra
    )
    payload = {
        "verdict": decision.answer,
        "witness": None
        if decision.failing_partition is None
        else {
            "low": [print_formula(f) for f in decision.failing_partition[0]],
            "high": [print_formula(f) for f in decision.failing_partition[1]],
        },
        "components": {"certified": decision.certified},
    }
    human = decision.answer + ("" if decision.certified else " (not certified)")
    if decision.failing_partition is not None:
        low, high = decision.failing_partition
        human += f"\nfailing partition: {print_formula_list(low)} / {print_formula_list(high)}"
    _emit(args, payload, human)
    return EXIT_YES if decision.answer == "yes" else EXIT_NO


def _axiom_derive(args) -> int:
    from .combine import AxiomSet, decide_with_axioms

    m = _load_matrix(args.matrix)
    axioms = AxiomSet(
        name="cli", axioms=parse_formula_list(args.axioms, m.sig)
    )
    gamma = parse_formula_list(args.premises, m.sig)
    a = parse_formula(args.conclusion, m.sig)
    decision = decide_with_axioms(m, axioms, gamma, a, max_depth=args.depth)
    payload = {
        "verdict": decision.answer,
        "bounds": {"depth": args.depth, "instances": decision.instances_used},
    }
    _emit(args, payload, decision.answer + (f" ({decision.note})" if decision.note else ""))
    return EXIT_YES if decision.answer == "yes" else EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pnmatrix", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, run, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(run=run)
        return p

    cmd("fixtures", "list the builtin matrices", _fixtures)

    p = cmd("parse", "parse a formula and print its canonical form", _parse)
    p.add_argument("--matrix", required=True, help="matrix file or fixture (for the signature)")
    p.add_argument("--formula", required=True)

    p = cmd("info", "classification and viability report of a matrix", _info)
    p.add_argument("--matrix", required=True)

    p = cmd("product", "strict product of two matrices", _writes_matrix(_product))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--output", help="write the result here instead of stdout")

    p = cmd("sum", "sum of matrices over a common signature", _writes_matrix(_sum))
    p.add_argument("--matrix", action="append", required=True, help="repeatable")
    p.add_argument("--output")

    p = cmd("power", "finite power of a matrix", _writes_matrix(_power))
    p.add_argument("--matrix", required=True)
    p.add_argument("--exponent", type=int, required=True)
    p.add_argument("--output")

    p = cmd("extend", "extend with fully non-deterministic connectives", _writes_matrix(_extend))
    p.add_argument("--matrix", required=True)
    p.add_argument("--add", action="append", required=True, metavar="NAME/ARITY")
    p.add_argument("--output")

    p = cmd("reduct", "restrict to a subsignature", _writes_matrix(_reduct))
    p.add_argument("--matrix", required=True)
    p.add_argument("--keep", required=True, help="comma-separated connectives")
    p.add_argument("--output")

    p = cmd("prune", "drop values no valuation can use", _writes_matrix(_prune))
    p.add_argument("--matrix", required=True)
    p.add_argument("--output")

    p = cmd("decide", "decide a consequence query over a matrix", _decide)
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=["single", "multiple"], default="multiple")
    p.add_argument("--premises", default="-")
    p.add_argument("--conclusions", default="-")

    p = cmd("check-rules", "check every rule of a calculus for soundness", _check_rules)
    p.add_argument("--matrix", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rules", help="rule file")
    g.add_argument("--calculus", help="builtin calculus name")

    p = cmd("separators", "search for a formula separating two values", _separators)
    p.add_argument("--matrix", required=True)
    p.add_argument("--pair", required=True, metavar="X,Y")
    p.add_argument("--subsignature", help="comma-separated connectives")
    p.add_argument("--max-depth", type=int, default=3)

    p = cmd("monadic", "separator table over all usable value pairs", _monadic)
    p.add_argument("--matrix", required=True)
    p.add_argument("--subsignature")
    p.add_argument("--max-depth", type=int, default=3)

    p = cmd("refute-saturation", "bounded search for a saturation counterexample", _refute_saturation)
    p.add_argument("--matrix", required=True)

    p = cmd("split-advice", "assess splitting a matrix into two reducts", _split_advice)
    p.add_argument("--matrix", required=True)
    p.add_argument("--first", required=True, help="comma-separated connectives")
    p.add_argument("--second", required=True)
    p.add_argument("--samples", type=int, default=200)

    p = cmd("combine", "combine two logics via the strict product", _combine)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=["single", "multiple"], default="multiple")
    p.add_argument("--power", type=int, help="use finite powers of the inputs (single mode)")
    p.add_argument("--output")

    p = cmd("decide-combined", "decide over a combination using only its parts", _decide_combined)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=["single", "multiple"], default="multiple")
    p.add_argument("--premises", default="-")
    p.add_argument("--conclusions", default="-")
    p.add_argument("--context", default="-", help="extra context formulas")

    p = cmd("axiom-derive", "consequence strengthened by axiom schemata", _axiom_derive)
    p.add_argument("--matrix", required=True)
    p.add_argument("--axioms", required=True, help="comma-separated axiom schemata")
    p.add_argument("--premises", default="-")
    p.add_argument("--conclusion", required=True)
    p.add_argument("--depth", type=int, default=2)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as e:  # the library's input errors are ValueErrors
        print(f"pnmatrix: error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
