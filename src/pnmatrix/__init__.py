"""Partial non-deterministic matrices: definition, combination, analysis, decision."""

from .syntax import (
    App,
    Formula,
    MonolithMap,
    ParseError,
    Signature,
    Substitution,
    Var,
    apply_substitution,
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
from .matrix_core import (
    FormatError,
    MatrixError,
    PNMatrix,
    ValueMap,
    ViabilityReport,
    check_strict_hom,
    classify,
    extend,
    format_matrix,
    inclusion,
    make_matrix,
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
from .engine import (
    Countermodel,
    Verdict,
    check_countermodel,
    decide_batch,
    decide_multiple,
    decide_single,
    possible_value_vector,
    possible_values,
)
from .calculus import (
    Calculus,
    Rule,
    SoundnessReport,
    calculus_sound,
    format_calculus,
    parse_calculus,
    parse_rule,
    rule_sound,
)
from .analysis import (
    Divergence,
    RefutationBounds,
    RefutationResult,
    SaturationWitness,
    SeparatorBounds,
    SeparatorTable,
    SplitVerdict,
    check_saturation_witness,
    find_separator,
    formula_pool,
    monadicity_report,
    refute_saturation,
    split_advice,
)
from .combine import (
    AxiomDecision,
    AxiomSet,
    CombinedDecision,
    CombinedLogic,
    SaturationRefused,
    axiom_instances,
    combine_multiple,
    combine_single_power,
    combine_single_saturated,
    decide_combined_ctx,
    decide_with_axioms,
)
from .fixtures import builtin, builtin_calculus, calculus_names, fixture_names

__all__ = [name for name in dir() if not name.startswith("_")]

_CLI_NAMES = ("run_cli", "EXIT_YES", "EXIT_NO", "EXIT_UNKNOWN", "EXIT_ERROR")


def __getattr__(name: str):
    """Load the command line (``cli_io``) only when one of its names is used."""
    if name == "cli_io" or name in _CLI_NAMES:
        import importlib

        # `from . import cli_io` would look the name up here again
        cli_io = importlib.import_module(f"{__name__}.cli_io")
        return cli_io if name == "cli_io" else getattr(cli_io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
