"""Span tracer for the per-layer run of the benchmark.

The library's modules bind each other's functions with ``from .x import y``,
so a call such as ``analysis -> decide_single`` goes through the name held by
``pnmatrix.analysis``, not through ``pnmatrix.engine``.  ``install`` therefore
replaces every module attribute (the package namespace included) that refers
to one of the public layer functions below, and ``uninstall`` puts the
originals back.  Each call records one span ``(name, start, end, parent)``;
a layer's self time is its spans' duration minus that of their child spans.
Counters that need a call's arguments or result are recorded at the same
boundary.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: public functions wrapped per layer (layer names are the package modules)
LAYER_FUNCTIONS = {
    "syntax": ("subformula_closure", "parse_formula", "parse_formula_list", "skeleton"),
    "matrix_core": (
        "make_matrix", "restrict", "reduct", "extend", "strict_product",
        "sum_matrices", "power", "prune", "viable_components",
    ),
    "engine": ("decide_multiple", "decide_single", "possible_values", "check_countermodel"),
    "calculus": ("calculus_sound", "rule_sound"),
    "analysis": ("refute_saturation", "monadicity_report", "split_advice"),
    "combine": ("decide_combined_ctx", "decide_with_axioms", "axiom_instances"),
    "cli_io": ("read_matrix", "format_matrix"),
}

BUILD_FUNCTIONS = tuple(f"matrix_core.{n}" for n in LAYER_FUNCTIONS["matrix_core"][:-1])


class Phase:
    """Spans and counters of one phase: the timed passes, or the untimed work
    around them (preparing a pass, checking its outputs)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.closure_sizes: list[int] = []

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock  # the run's clock (it leaves out the speed probe's time)
        self.run = Phase()
        self.untimed = Phase()
        self.phase = self.run
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._decide_keys: set = set()
        self._seen_matrices: dict[int, object] = {}  # keeps ids unique while tracing

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"pnmatrix.{layer}") for layer in LAYER_FUNCTIONS}
        targets = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for n in names:
                fn = getattr(modules[layer], n)
                targets[id(fn)] = (f"{layer}.{n}", fn)
        wrappers = {}
        for mod in [importlib.import_module("pnmatrix"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        after = _AFTER.get(name)

        clock = self.clock

        def traced(*args, **kwargs):
            phase = self.phase
            parent = self._stack[-1] if self._stack else None
            index = len(phase.spans)
            span = [name, 0.0, 0.0, parent]
            phase.spans.append(span)
            self._stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if after is not None:
                after(self, phase, args, result)
            return result

        return traced

    def _inside(self, phase: Phase, name: str) -> bool:
        return any(phase.spans[i][0] == name for i in self._stack)

    def _parent_name(self, phase: Phase):
        return phase.spans[self._stack[-1]][0] if self._stack else None

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, passes: int, checked_passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass means over the traced passes; check_countermodel is untimed."""
        run = self.run
        st, calls, n = run.self_times(), run.calls(), max(passes, 1)
        cst = self.untimed.self_times()

        def s(*names):
            return sum(st.get(x, 0.0) for x in names) / n

        def c(*names):
            return sum(calls.get(x, 0) for x in names) / n

        decide_calls = calls.get("engine.decide_multiple", 0)
        theories = run.counts["theories_checked"]
        sizes = run.closure_sizes
        return {
            "engine.decide_calls": (c("engine.decide_multiple"), "count"),
            "engine.decide_s": (s("engine.decide_multiple", "engine.decide_single"), "s"),
            "engine.dfs_nodes": (run.counts["dfs_nodes"] / n, "count"),
            "engine.components_tried": (run.counts["components_tried"] / n, "count"),
            "engine.closure_size_mean": (sum(sizes) / len(sizes) if sizes else 0.0, "formulas"),
            "engine.possible_values_calls": (c("engine.possible_values"), "count"),
            "engine.possible_values_s": (s("engine.possible_values"), "s"),
            "engine.decide_repeat_ratio": (
                run.counts["decide_repeats"] / decide_calls if decide_calls else 0.0, "ratio"),
            "engine.check_countermodel_s": (
                cst.get("engine.check_countermodel", 0.0) / max(checked_passes, 1), "s"),
            "analysis.refute_s": (s("analysis.refute_saturation"), "s"),
            "analysis.theories_checked": (theories / n, "count"),
            "analysis.decides_per_theory": (
                run.counts["refute_decides"] / theories if theories else 0.0, "ratio"),
            "analysis.monadic_s": (s("analysis.monadicity_report"), "s"),
            "analysis.split_s": (s("analysis.split_advice"), "s"),
            "matrix_core.build_s": (s(*BUILD_FUNCTIONS), "s"),
            "matrix_core.viability_calls": (c("matrix_core.viable_components"), "count"),
            "matrix_core.viability_cold": (run.counts["viability_cold"] / n, "count"),
            "matrix_core.viability_s": (s("matrix_core.viable_components"), "s"),
            "syntax.closure_calls": (c("syntax.subformula_closure"), "count"),
            "syntax.closure_s": (s("syntax.subformula_closure"), "s"),
            "syntax.parse_s": (s("syntax.parse_formula", "syntax.parse_formula_list"), "s"),
            "syntax.skeleton_calls": (c("syntax.skeleton"), "count"),
            "calculus.rules_checked": (c("calculus.rule_sound"), "count"),
            "calculus.sound_s": (s("calculus.calculus_sound", "calculus.rule_sound"), "s"),
            "combine.ctx_s": (s("combine.decide_combined_ctx"), "s"),
            "combine.partitions_checked": (run.counts["partitions_checked"] / n, "count"),
            "combine.axioms_s": (s("combine.decide_with_axioms", "combine.axiom_instances"), "s"),
            "combine.axiom_instances": (run.counts["axiom_instances"] / n, "count"),
            "cli_io.read_matrix_s": (s("cli_io.read_matrix"), "s"),
            "cli_io.format_matrix_s": (s("cli_io.format_matrix"), "s"),
        }


# -- counters recorded at span boundaries ------------------------------------

def _after_decide(tracer, phase, args, verdict):
    m, gamma, delta = args[:3]
    tracer._seen_matrices.setdefault(id(m), m)
    key = (id(m), frozenset(gamma), frozenset(delta))
    if key in tracer._decide_keys:
        phase.counts["decide_repeats"] += 1
    else:
        # a repeated call is answered from the engine's cache and searches nothing
        tracer._decide_keys.add(key)
        phase.counts["dfs_nodes"] += verdict.assignments_explored
        phase.counts["components_tried"] += verdict.components_tried
    if tracer._inside(phase, "analysis.refute_saturation"):
        phase.counts["refute_decides"] += 1


def _after_closure(tracer, phase, args, closure):
    if tracer._parent_name(phase) == "engine.decide_multiple":
        phase.closure_sizes.append(len(closure))


def _after_viability(tracer, phase, args, report):
    m = args[0]
    if id(m) not in tracer._seen_matrices:
        phase.counts["viability_cold"] += 1
    tracer._seen_matrices.setdefault(id(m), m)


def _count(counter, value):
    def after(tracer, phase, args, result):
        phase.counts[counter] += value(result)
    return after


_AFTER = {
    "engine.decide_multiple": _after_decide,
    "syntax.subformula_closure": _after_closure,
    "matrix_core.viable_components": _after_viability,
    "analysis.refute_saturation": _count("theories_checked", lambda r: r.theories_checked),
    "combine.decide_combined_ctx": _count("partitions_checked", lambda r: r.partitions_checked),
    "combine.axiom_instances": _count("axiom_instances", len),
}
