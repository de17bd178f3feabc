"""Partial non-deterministic matrices: definition, combination, analysis, decision.

``import pnmatrix`` loads none of the package's modules.  Each public name
below, and each module name, loads its module on first use and is then bound
here, so that later reads are plain attribute reads.  A program, the command
line included, thus loads only the layers it calls.
"""

from importlib import import_module

#: the public names, by the module that defines them
_EXPORTS = {
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

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])

#: where each name lives; the command line's names resolve too, but are not
#: exported, since the library does not import its CLI
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update(
    dict.fromkeys(("run_cli", "EXIT_YES", "EXIT_NO", "EXIT_UNKNOWN", "EXIT_ERROR"), "cli_io")
)


def __getattr__(name: str):
    """Load the module a name lives in, on its first use."""
    if name in _EXPORTS or name == "cli_io":
        # `from . import name` would look the name up here again
        return import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
