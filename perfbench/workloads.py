"""The benchmark's four workloads: inputs, jobs, output checks and digests.

Each workload builds its inputs from the seed in ``setup`` and then hands out
one pass at a time: ``jobs()`` returns the fixed job list on fresh matrix
objects.  ``queries`` and ``combine`` draw their jobs from a fixed pool and
take the seed for their order only: drawn per seed, a few heavy queries more
or less moved run_s by about 8% from seed to seed, more than the benchmark
has to resolve.  ``cli`` draws its jobs from the seed; ``analysis`` has a
fixed job list in a fixed order.  The engine and ``matrix_core`` cache verdicts and viability by
``id()`` and ``builtin()`` returns one shared object per fixture, so every
pass (and, where a job could be served by another job's cache, every job)
gets deep copies that no earlier call has seen.  ``describe`` gives the
canonical text of a job's output that goes into the digest, and ``check``
re-verifies an output with procedures independent of the timed call.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

P: Any = None  # the pnmatrix package, imported inside the timed set-up
ORACLE: Any = None  # tests/oracle.py, the brute-force reference decision procedure
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

fresh = copy.deepcopy

#: a query is cross-checked against the oracle when values ** closure stays
#: below this and the carrier is small enough for its 2^n viability scan
ORACLE_ASSIGNMENTS = 4000
ORACLE_VALUES = 9

#: queries use at most 4 variables, and no more than keep values ** variables
#: below this (2 on the 16-value powers): a "yes" has to try every assignment
VARIABLE_ASSIGNMENTS = 625

#: cases kept out of timing, each with its reason
EXCLUDED = (
    ("strict_product(power(kleene-imp,2), power(luk-imp,2))",
     "65 values: every decide raises 'viability scan over 65 values exceeds cap 16'"),
    ("queries on power(bool2n,4)",
     "single queries take 2 ms to over 0.2 s and some run for minutes; "
     "a batch of 40 did not finish in 3 minutes"),
    ("3- and 4-variable queries on the 16-value powers",
     "a 'yes' needs all 16^k variable assignments: single queries took up to 0.1 s "
     "with 3 variables and 2.5 s with 4, and the few per seed made run_s vary 13% by seed"),
    ("queries on strict products of fixtures with different signatures",
     "a connective of one side is unconstrained on the other; single queries "
     "took up to 38 s (4.3 million DFS nodes on pruned bool2n x sources)"),
    ("decide_with_axioms(bool2, K, [p], and(p, neg(q))) and seeded axiom queries",
     "raises RecursionError: the depth-2 search closure has 2,564 formulas and the "
     "engine's DFS recurses once per formula; axiom jobs use a fixed query list"),
)


def import_library() -> None:
    global P, ORACLE
    sys.path.insert(0, os.path.join(ROOT, "src"))
    P = importlib.import_module("pnmatrix")
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "tests", "oracle.py"))
    ORACLE = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ORACLE)


def seeded_order(specs: list, seed: str) -> list[tuple[int, Any]]:
    """The specs as (index in the pool, spec) pairs, shuffled by the seed.
    Job keys use the pool index, so outputs and digests do not depend on the
    order."""
    order = list(enumerate(specs))
    random.Random(seed).shuffle(order)
    return order


def clear_library_caches() -> None:
    """Empty the library's module-level caches (``*_cache`` dicts and
    ``functools`` caches).  Every pass works on fresh matrix objects, so what
    earlier passes left there can never be hit; it would only grow the heap
    each later pass runs in, and make a pass slower the more passes came first."""
    for name, mod in list(sys.modules.items()):
        if name != "pnmatrix" and not name.startswith("pnmatrix."):
            continue
        for attr, value in list(vars(mod).items()):
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class Job:
    key: str  # unique within a pass, stable across passes
    group: str  # label for the per-group timing summary
    fn: Callable[[], Any]
    spec: Any = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def random_formula(rng, sig, variables, depth):
    """A random formula in the style of tests/corpus.py."""
    positive = [(n, k) for n, k in sig if k > 0]
    leaves = [P.Var(v) for v in variables] + [P.App(n, ()) for n, k in sig if k == 0]
    if depth == 0 or not positive or rng.random() < 0.3:
        return rng.choice(leaves)
    n, k = rng.choice(positive)
    return P.App(n, tuple(random_formula(rng, sig, variables, depth - 1) for _ in range(k)))


def show(formulas) -> str:
    return ", ".join(P.print_formula(f) for f in formulas) or "-"


def verdict_text(v) -> str:
    cm = v.countermodel
    if cm is None:
        return v.answer
    return f"{v.answer} [{cm.pretty()}] in {{{' '.join(sorted(cm.component))}}}"


def countermodel_problems(m, gamma, delta, v) -> list[str]:
    if v.answer != "no":
        return []
    if v.countermodel is None:
        return [f"'no' without a countermodel for {show(gamma)} |- {show(delta)}"]
    return [f"{show(gamma)} |- {show(delta)}: {p}"
            for p in P.check_countermodel(m, gamma, delta, v.countermodel)]


def oracle_problems(m, gamma, delta, answer) -> list[str]:
    """Brute-force cross-check, skipped when the enumeration would be large."""
    closure = P.subformula_closure(list(gamma) + list(delta))
    n = len(m.values)
    if n > ORACLE_VALUES or n ** len(closure) > ORACLE_ASSIGNMENTS:
        return []
    expected = ORACLE.oracle_decide(m, gamma, delta)
    if expected != answer:
        return [f"{show(gamma)} |- {show(delta)}: engine {answer}, oracle {expected}"]
    return []


def sub_sig(m, names):
    return P.Signature.of({c: m.sig.arity(c) for c in names})


SPLITS = (  # the three splits run by scripts/split_advisor.py
    ("luk3", ("neg", "imp"), ("nabla",)),
    ("luk3", ("neg", "imp"), ("nabla", "imp")),
    ("kleene-ks", ("and", "neg"), ("or", "neg")),
)
#: the verdict the program returns and ROADMAP verified by hand
SPLIT_REFERENCE = {("luk3", ("neg", "imp"), ("nabla", "imp")): "unsafe-evidence"}

#: fixture pairs over one signature; their pruned products are query targets
SAME_SIG_PAIRS = (
    ("kleene-imp", "luk-imp"), ("kleene-ks", "sources"), ("kleene-imp", "kleene-imp"),
    ("luk-imp", "luk-imp"), ("kleene-ks", "kleene-ks"), ("sources", "sources"),
    ("luk3", "luk3"), ("neg3", "neg3"),
)
POWERS = (("bool2", 4), ("kleene-ks", 2), ("sources", 2))
CALCULUS_MATRIX = {"classical": "bool2", "kleene-ks": "kleene-ks",
                   "sources": "sources", "bool2n": "bool2n"}
#: pairs with disjoint or partly shared signatures for context decision
CTX_PAIRS = (
    ("kleene-imp", "neg3"), ("luk-imp", "neg3"), ("kleene-imp", "sources"),
    ("luk-imp", "sources"), ("bool2n", "neg3"), ("kleene-ks", "kleene-imp"),
    ("luk3", "kleene-ks"),
)
AXIOMS = {"K": "imp(p, imp(q, p))",
          "S": "imp(imp(p, imp(q, r)), imp(imp(p, q), imp(p, r)))"}
#: (schema, premises, conclusion) over bool2: derivable ones and ones that end
#: "unknown" at depth 2, either after a search or at the instance cap
AXIOM_QUERIES = (
    ("K", "-", "imp(p, p)"), ("K", "q", "imp(p, q)"), ("K", "-", "p"),
    ("K", "p", "or(q, q)"), ("K", "imp(p, q), p", "q"),
    ("S", "-", "imp(p, p)"), ("S", "imp(p, q), imp(q, r)", "imp(p, r)"),
    ("S", "p", "q"), ("S", "-", "or(p, neg(p))"), ("S", "imp(p, q)", "q"),
)


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def describe(self, job: Job, result) -> str:
        raise NotImplementedError

    def check(self, job: Job, result) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# analysis: many tiny engine queries behind the analysis tools
# ---------------------------------------------------------------------------

class Analysis(Workload):
    name = "analysis"

    def setup(self, seed):
        # fixed inputs in a fixed order: the seed is not used, so run-to-run
        # differences are the machine's alone
        import_library()
        self.fixtures = {n: P.builtin(n) for n in P.fixture_names()}
        self.specs = [("refute", n) for n in self.fixtures] + [("monadic", n) for n in self.fixtures]
        self.specs += [("split", s) for s in SPLITS]

    def jobs(self):
        out = []
        for kind, arg in self.specs:
            if kind == "split":
                name, s1, s2 = arg
                m = fresh(self.fixtures[name])
                fn = (lambda m=m, s1=s1, s2=s2:
                      P.split_advice(m, sub_sig(m, s1), sub_sig(m, s2)))
                key = f"split:{name}:{','.join(s1)}/{','.join(s2)}"
            else:
                m = fresh(self.fixtures[arg])
                fn = (lambda m=m, kind=kind:
                      (P.refute_saturation if kind == "refute" else P.monadicity_report)(m))
                key = f"{kind}:{arg}"
            out.append(Job(key, key, fn, (kind, arg)))
        return out

    def describe(self, job, r):
        kind = job.spec[0]
        if kind == "refute":
            w = r.witness.pretty() if r.witness else "-"
            return f"refuted={r.refuted} theories={r.theories_checked} witness={w}"
        if kind == "monadic":
            return _separators_text(r)
        lines = [f"verdict={r.verdict} samples={r.samples_run}",
                 _separators_text(r.separators),
                 f"refuted={r.saturation.refuted} "
                 f"witness={r.saturation.witness.pretty() if r.saturation.witness else '-'}"]
        for d in r.divergences:
            lines.append(f"{d.pretty()} | {verdict_text(d.matrix_verdict)} "
                         f"| {verdict_text(d.product_verdict)}")
        return "\n".join(lines)

    def check(self, job, r):
        kind, arg = job.spec
        if kind == "refute":
            m = fresh(self.fixtures[arg])
            if r.witness is None:
                return []
            problems = P.check_saturation_witness(m, r.witness)
            for a in r.witness.phi:
                v = P.decide_single(m, r.witness.gamma0, a)
                problems += countermodel_problems(m, r.witness.gamma0, [a], v)
            return problems
        if kind == "monadic":
            return _separator_problems(fresh(self.fixtures[arg]), r)
        name, s1, s2 = arg
        m = fresh(self.fixtures[name])
        problems = []
        expected = SPLIT_REFERENCE.get(arg)
        if expected is not None and r.verdict != expected:
            problems.append(f"verdict {r.verdict}, reference {expected}")
        product = P.strict_product(P.reduct(m, sub_sig(m, s1)), P.reduct(m, sub_sig(m, s2)))
        for d in r.divergences:
            for target, v in ((m, d.matrix_verdict), (product, d.product_verdict)):
                problems += countermodel_problems(target, [d.premise], [d.conclusion], v)
                problems += oracle_problems(target, [d.premise], [d.conclusion], v.answer)
        return problems


def _separators_text(t) -> str:
    pairs = " ".join(f"{x},{y}:{P.print_formula(f) if f is not None else '-'}"
                     for (x, y), f in t.pairs)
    return (f"monadic={t.monadic} usable={sorted(t.usable)} "
            f"spurious={sorted(t.spurious)} {pairs}")


def _separator_problems(m, t) -> list[str]:
    problems = []
    if t.monadic != all(f is not None for _, f in t.pairs):
        problems.append("monadic flag disagrees with the separator table")
    for (x, y), f in t.pairs:
        if f is None:
            continue
        vx, vy = P.possible_values(m, f, x), P.possible_values(m, f, y)
        if not (vx and vy and (vx <= m.designated) != (vy <= m.designated)):
            problems.append(f"{P.print_formula(f)} does not separate {x} from {y}")
    return problems


# ---------------------------------------------------------------------------
# queries: a stream of distinct single searches
# ---------------------------------------------------------------------------

class Queries(Workload):
    name = "queries"
    PER_SMALL_TARGET = 80
    PER_POWER = 320

    def setup(self, seed):
        import_library()
        fx = {n: P.builtin(n) for n in P.fixture_names()}
        targets = dict(fx)
        for a, b in SAME_SIG_PAIRS:
            targets[f"prune({a} x {b})"] = P.prune(P.strict_product(fx[a], fx[b]))
        for n, k in POWERS:
            targets[f"power({n},{k})"] = P.power(fx[n], k)
        for m in targets.values():
            P.viable_components(m)
        self.targets = targets
        rng = random.Random("queries:pool")
        seen = set()
        specs = []
        for tname, m in targets.items():
            big = len(m.values) > 8
            count = self.PER_POWER if big else self.PER_SMALL_TARGET
            max_vars = max(k for k in range(1, 5)
                           if len(m.values) ** k <= VARIABLE_ASSIGNMENTS)
            for i in range(count):
                # the shape cycles deterministically so every seed gets the same mix
                single = i % 2 == 0
                nvars = i // 2 % max_vars + 1
                depth = i // 8 % 3 + 1
                npremises = i % 4
                nconclusions = 1 if single else i // 3 % 3 + 1
                for attempt in itertools.count():
                    # small signatures run out of distinct queries of one shape:
                    # widen variables, then depth, then add premises
                    grow = attempt // 20
                    variables = ("p", "q", "r", "s")[:min(nvars + grow, max_vars)]
                    d = min(depth + grow // max_vars, 3)
                    extra = grow // (2 * max_vars)
                    gamma = tuple(random_formula(rng, m.sig, variables, d)
                                  for _ in range(npremises + extra))
                    delta = tuple(random_formula(rng, m.sig, variables, d)
                                  for _ in range(nconclusions))
                    key = (tname, single, frozenset(gamma), frozenset(delta))
                    if key not in seen:
                        seen.add(key)
                        break
                specs.append(("decide", tname, single, gamma, delta))
        self.calculi = {}
        for cname in P.calculus_names():
            self.calculi[cname] = P.builtin_calculus(cname)
            specs.append(("calculus", cname))
        self.specs = seeded_order(specs, f"queries:{seed}")

    def jobs(self):
        copies = {name: fresh(m) for name, m in self.targets.items()}
        for m in copies.values():  # set-up work: scans are not part of a query
            P.viable_components(m)
        out = []
        for i, spec in self.specs:
            if spec[0] == "calculus":
                cname = spec[1]
                m = fresh(P.builtin(CALCULUS_MATRIX[cname]))
                fn = lambda m=m, cal=self.calculi[cname]: P.calculus_sound(m, cal)
                out.append(Job(f"{i}:calculus:{cname}", "calculus_sound", fn, spec))
                continue
            _, tname, single, gamma, delta = spec
            m = copies[tname]
            if single:
                fn = lambda m=m, g=gamma, a=delta[0]: P.decide_single(m, g, a)
            else:
                fn = lambda m=m, g=gamma, d=delta: P.decide_multiple(m, g, d)
            group = tname if tname.startswith("power") else "fixtures and products"
            out.append(Job(f"{i}:{tname}", group, fn, spec))
        return out

    def describe(self, job, r):
        if job.spec[0] == "calculus":
            return " ".join(f"{rule.name}={verdict_text(v)}" for rule, v in r.per_rule)
        return verdict_text(r)

    def check(self, job, r):
        if job.spec[0] == "calculus":
            m = P.builtin(CALCULUS_MATRIX[job.spec[1]])
            problems = [] if r.all_sound else [f"builtin calculus {job.spec[1]} reported unsound"]
            for rule, v in r.per_rule:
                problems += countermodel_problems(m, rule.premises, rule.conclusions, v)
            return problems
        _, tname, single, gamma, delta = job.spec
        m = self.targets[tname]
        return (countermodel_problems(m, gamma, delta, r)
                + oracle_problems(m, gamma, delta, r.answer))


# ---------------------------------------------------------------------------
# combine: matrix construction, cold viability scans, context decision
# ---------------------------------------------------------------------------

class Combine(Workload):
    name = "combine"
    PRODUCTS = 8
    CTX_PER_PAIR = 10

    def setup(self, seed):
        import_library()
        self.fixtures = fx = {n: P.builtin(n) for n in P.fixture_names()}
        rng = random.Random("combine:pool")
        names = list(fx)
        pairs = list(itertools.combinations_with_replacement(names, 2))
        specs = [("power", n, 2) for n in names] + [("power", "bool2", 4)]
        specs += [("product", a, b) for a, b in rng.sample(pairs, self.PRODUCTS)]
        specs += [("sum", ("kleene-ks", "sources")), ("sum", ("kleene-imp", "luk-imp")),
                  ("sum", ("sources", "kleene-ks", "sources", "kleene-ks")),
                  ("sum", ("luk3", "luk3", "luk3"))]
        specs += [("hom", a, b) for a, b in rng.sample(pairs, self.PRODUCTS)]
        for a, b in CTX_PAIRS:
            sig = fx[a].sig.union(fx[b].sig)
            for i in range(self.CTX_PER_PAIR):
                mode = "single" if i % 2 else "multiple"
                while True:
                    variables = ("p", "q")[: rng.randint(1, 2)]
                    gamma = tuple(random_formula(rng, sig, variables, 2)
                                  for _ in range(rng.randint(0, 2)))
                    delta = tuple(random_formula(rng, sig, variables, 2)
                                  for _ in range(1 if mode == "single" else rng.randint(1, 2)))
                    if len(P.subformula_closure(gamma + delta)) <= P.combine.CTX_CAP:
                        break
                specs.append(("ctx", a, b, gamma, delta, mode))
        sig = fx["bool2"].sig
        axioms = {k: P.AxiomSet(k, (P.parse_formula(t, sig),)) for k, t in AXIOMS.items()}
        for k, premises, conclusion in AXIOM_QUERIES:
            specs.append(("axiom", axioms[k], P.parse_formula_list(premises, sig),
                          P.parse_formula(conclusion, sig)))
        self.specs = seeded_order(specs, f"combine:{seed}")

    def jobs(self):
        fx = self.fixtures
        out = []
        for i, spec in self.specs:
            kind = spec[0]
            if kind == "power":
                m = fresh(fx[spec[1]])
                fn = lambda m=m, k=spec[2]: P.prune(P.power(m, k))
                key = f"power({spec[1]},{spec[2]})"
            elif kind == "product":
                m1, m2 = fresh(fx[spec[1]]), fresh(fx[spec[2]])
                fn = lambda m1=m1, m2=m2: P.prune(P.strict_product(m1, m2))
                key = f"product({spec[1]},{spec[2]})"
            elif kind == "sum":
                ms = [fresh(fx[n]) for n in spec[1]]
                fn = lambda ms=ms: P.prune(P.sum_matrices(ms))
                key = f"sum({','.join(spec[1])})"
            elif kind == "hom":
                m1, m2 = fresh(fx[spec[1]]), fresh(fx[spec[2]])
                fn = lambda m1=m1, m2=m2: _projections_are_homs(m1, m2)
                key = f"hom({spec[1]},{spec[2]})"
            elif kind == "ctx":
                _, a, b, gamma, delta, mode = spec
                m1, m2 = fresh(fx[a]), fresh(fx[b])
                fn = (lambda m1=m1, m2=m2, g=gamma, d=delta, mode=mode:
                      P.decide_combined_ctx(m1, m2, g, d, mode=mode))
                key = f"ctx({a},{b}):{mode}:{show(gamma)} |- {show(delta)}"
            else:
                _, ax, gamma, a = spec
                m = fresh(fx["bool2"])
                fn = lambda m=m, ax=ax, g=gamma, a=a: P.decide_with_axioms(m, ax, g, a)
                key = f"axiom({ax.name}):{show(gamma)} |- {P.print_formula(a)}"
            out.append(Job(f"{i}:{key}", key if kind == "power" else kind, fn, spec))
        return out

    def describe(self, job, r):
        kind = job.spec[0]
        if kind in ("power", "product", "sum"):
            return P.format_matrix(r)
        if kind == "hom":
            return repr(r)
        if kind == "ctx":
            part = r.failing_partition
            fail = "-" if part is None else f"{show(part[0])} / {show(part[1])}"
            return (f"{r.answer} certified={r.certified} partitions={r.partitions_checked} "
                    f"failing={fail}")
        return f"{r.answer} depth={r.depth_used} instances={r.instances_used} {r.note}"

    def check(self, job, r):
        spec = job.spec
        kind = spec[0]
        fx = self.fixtures
        if kind in ("power", "product", "sum"):
            if kind == "power":
                whole = P.power(fresh(fx[spec[1]]), spec[2])
            elif kind == "product":
                whole = P.strict_product(fresh(fx[spec[1]]), fresh(fx[spec[2]]))
            else:
                whole = P.sum_matrices([fresh(fx[n]) for n in spec[1]])
            problems = [f"pruned result has spurious values {sorted(rep.spurious)}"
                        for rep in [P.viable_components(fresh(r))] if rep.spurious]
            if len(whole.values) <= ORACLE_VALUES:
                usable = set().union(*ORACLE.brute_viable_sets(whole))
                if usable != set(r.values):
                    problems.append(f"pruned to {sorted(r.values)}, oracle keeps {sorted(usable)}")
            return problems
        if kind == "hom":
            return [f"projection {side}: {msg}" for side, msg in enumerate(r, 1) if msg]
        if kind == "ctx":
            _, a, b, gamma, delta, mode = spec
            if mode != "multiple" or not r.certified:
                return []
            # certified multiple-conclusion answers equal the product route
            product = P.strict_product(fresh(fx[a]), fresh(fx[b]))
            v = P.decide_multiple(product, gamma, delta)
            problems = countermodel_problems(product, gamma, delta, v)
            if v.answer != r.answer:
                problems.append(f"context route {r.answer}, product route {v.answer}")
            return problems
        _, ax, gamma, a = spec
        # K and S are classical tautologies, so over bool2 they add nothing:
        # a derivation exists exactly when gamma |- a holds classically
        plain = P.decide_single(fresh(fx["bool2"]), gamma, a).answer
        if r.answer == "yes" and plain != "yes":
            return ["derived a consequence that does not hold classically"]
        if plain == "yes" and r.answer != "yes" and "instances" not in r.note:
            return ["missed a classical consequence within the instance cap"]
        return []


def _projections_are_homs(m1, m2):
    p = P.strict_product(m1, m2)
    return (P.check_strict_hom(P.projection(p, 1), p, m1),
            P.check_strict_hom(P.projection(p, 2), p, m2))


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per job
# ---------------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    DECIDES = 10
    DECIDE_COMBINED = 3

    def setup(self, seed):
        import_library()
        fx = {n: P.builtin(n) for n in P.fixture_names()}
        rng = random.Random(f"cli:{seed}")
        names = sorted(fx)
        self.tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        specs = [("fixtures",)]
        specs += [("info", rng.choice(names)) for _ in range(3)]
        for i in range(self.DECIDES):
            name = rng.choice(names)
            m = fx[name]
            single = i % 2 == 0
            variables = ("p", "q", "r")[: rng.randint(1, 3)]
            gamma = [random_formula(rng, m.sig, variables, 2) for _ in range(rng.randint(0, 2))]
            delta = [random_formula(rng, m.sig, variables, 2)
                     for _ in range(1 if single else rng.randint(1, 2))]
            specs.append(("decide", name, "single" if single else "multiple",
                          show(gamma), show(delta)))
        for i, (a, b) in enumerate(rng.sample(SAME_SIG_PAIRS, 3)):
            path = os.path.join(self.tmp, f"product{i}.pnm")
            specs.append(("product", a, b, path))
            specs.append(("prune", path, path + ".pruned", a, b))
        specs += [("check-rules", CALCULUS_MATRIX[c], c)
                  for c in rng.sample(sorted(CALCULUS_MATRIX), 2)]
        specs += [("monadic", n) for n in names]
        specs += [("split-advice",) + s for s in SPLITS]
        for _ in range(self.DECIDE_COMBINED):
            a, b = rng.choice(CTX_PAIRS)
            sig = fx[a].sig.union(fx[b].sig)
            while True:
                gamma = [random_formula(rng, sig, ("p", "q"), 2) for _ in range(rng.randint(0, 2))]
                delta = [random_formula(rng, sig, ("p", "q"), 2)]
                if len(P.subformula_closure(gamma + delta)) <= P.combine.CTX_CAP:
                    break
            specs.append(("decide-combined", a, b, show(gamma), show(delta)))
        for k, premises, conclusion in (AXIOM_QUERIES[4], AXIOM_QUERIES[6]):
            specs.append(("axiom-derive", AXIOMS[k], premises, conclusion))
        # a prune job reads the file its product job writes, so the pair stays in order
        blocks, i = [], 0
        while i < len(specs):
            step = 2 if specs[i][0] == "product" else 1
            blocks.append(specs[i:i + step])
            i += step
        rng.shuffle(blocks)
        self.specs = [s for block in blocks for s in block]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def close(self):
        for name in os.listdir(self.tmp):
            os.remove(os.path.join(self.tmp, name))
        os.rmdir(self.tmp)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.tmp))

    def argv(self, spec) -> list[str]:
        kind = spec[0]
        if kind == "fixtures":
            return ["fixtures", "--json"]
        if kind == "info":
            return ["info", "--matrix", spec[1], "--json"]
        if kind == "decide":
            return ["decide", "--matrix", spec[1], "--mode", spec[2],
                    "--premises", spec[3], "--conclusions", spec[4], "--json"]
        if kind == "product":
            return ["product", "--left", spec[1], "--right", spec[2], "--output", spec[3]]
        if kind == "prune":
            return ["prune", "--matrix", spec[1], "--output", spec[2]]
        if kind == "check-rules":
            return ["check-rules", "--matrix", spec[1], "--calculus", spec[2], "--json"]
        if kind == "monadic":
            return ["monadic", "--matrix", spec[1], "--json"]
        if kind == "split-advice":
            return ["split-advice", "--matrix", spec[1], "--first", ",".join(spec[2]),
                    "--second", ",".join(spec[3]), "--json"]
        if kind == "decide-combined":
            return ["decide-combined", "--left", spec[1], "--right", spec[2],
                    "--premises", spec[3], "--conclusions", spec[4], "--json"]
        return ["axiom-derive", "--matrix", "bool2", "--axioms", spec[1],
                "--premises", spec[2], "--conclusion", spec[3], "--json"]

    def _run_process(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "pnmatrix.cli_io", *self.argv(spec)],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def jobs(self):
        return [Job(self._key(i, s), s[0], lambda s=s: self._run_process(s), s)
                for i, s in enumerate(self.specs)]

    def _key(self, i, spec):
        # output paths hold the process id; keys must not
        return f"{i}:{' '.join(self.argv(spec))}".replace(self.tmp, "<tmp>")

    def in_process_jobs(self) -> list[Job]:
        """The same argv lists through run_cli, one fresh fixture object per load."""
        def run(spec):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = P.run_cli(self.argv(spec))
            return code, out.getvalue(), err.getvalue()
        return [Job(self._key(i, s), s[0], lambda s=s: run(s), s)
                for i, s in enumerate(self.specs)]

    def _output_file(self, spec):
        if spec[0] in ("product", "prune"):
            path = spec[3] if spec[0] == "product" else spec[2]
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        return ""

    def describe(self, job, r):
        code, out, _ = r
        return f"exit={code}\n{out}{self._output_file(job.spec)}"

    def check(self, job, r):
        code, out, err = r
        if code not in (0, 1, 2) or "Traceback" in err:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        expected_code, expected = self.library_answer(job.spec)
        problems = [] if code == expected_code else [f"exit code {code}, library says {expected_code}"]
        got = self._output_file(job.spec) if job.spec[0] in ("product", "prune") else json.loads(out)
        if got != expected:
            problems.append(f"output differs from the library's answer: {str(got)[:200]}")
        return problems

    def library_answer(self, spec):
        """(exit code, JSON payload or file text) the library gives for a job."""
        kind = spec[0]
        fx = lambda n: fresh(P.builtin(n))
        if kind == "fixtures":
            rows = [{"name": n, "kind": P.classify(m), "values": len(m.values),
                     "known_saturated": bool(m.meta.get("known_saturated")),
                     "description": m.meta.get("description", "")}
                    for n in P.fixture_names() for m in [P.builtin(n)]]
            return 0, {"verdict": "ok", "components": rows}
        if kind == "info":
            m = fx(spec[1])
            rep = P.viable_components(m)
            return 0, {"verdict": P.classify(m),
                       "components": [sorted(w) for w in rep.maximal],
                       "witness": {"values": list(m.values),
                                   "designated": sorted(m.designated),
                                   "spurious": sorted(rep.spurious)}}
        if kind == "decide":
            m = fx(spec[1])
            gamma = P.parse_formula_list(spec[3], m.sig)
            delta = P.parse_formula_list(spec[4], m.sig)
            v = P.decide_multiple(m, gamma, delta)
            cm = None if v.countermodel is None else {
                "assignment": {P.print_formula(f): x for f, x in v.countermodel.assignment},
                "component": sorted(v.countermodel.component)}
            return (0 if v.answer == "yes" else 1), {"verdict": v.answer, "witness": cm}
        if kind == "product":
            return 0, P.format_matrix(P.strict_product(fx(spec[1]), fx(spec[2])))
        if kind == "prune":
            product = P.strict_product(fx(spec[3]), fx(spec[4]))
            return 0, P.format_matrix(P.prune(P.read_matrix(P.format_matrix(product))))
        if kind == "check-rules":
            m = fx(spec[1])
            cal = P.Calculus(sig=m.sig, rules=P.builtin_calculus(spec[2]).rules)
            rep = P.calculus_sound(m, cal)
            return (0 if rep.all_sound else 1), {
                "verdict": "all-sound" if rep.all_sound else "unsound",
                "components": [{"rule": r.name, "sound": v.answer == "yes"}
                               for r, v in rep.per_rule]}
        if kind == "monadic":
            t = P.monadicity_report(fx(spec[1]))
            return (0 if t.monadic else 2), {
                "verdict": "monadic" if t.monadic else "not-shown-monadic",
                "components": [{"pair": list(p), "separator": None if f is None
                                else P.print_formula(f)} for p, f in t.pairs],
                "bounds": {"max_depth": 3}}
        if kind == "split-advice":
            m = fx(spec[1])
            sv = P.split_advice(m, sub_sig(m, spec[2]), sub_sig(m, spec[3]))
            code = {"unsafe-evidence": 1, "inconclusive": 2}.get(sv.verdict, 0)
            return code, {"verdict": sv.verdict,
                          "witness": [d.pretty() for d in sv.divergences],
                          "components": {"monadic": sv.separators.monadic,
                                         "saturation_refuted": sv.saturation.refuted,
                                         "samples_run": sv.samples_run},
                          "bounds": {"samples": 200}}
        if kind == "decide-combined":
            m1, m2 = fx(spec[1]), fx(spec[2])
            union = m1.sig.union(m2.sig)
            d = P.decide_combined_ctx(m1, m2, P.parse_formula_list(spec[3], union),
                                      P.parse_formula_list(spec[4], union))
            witness = None if d.failing_partition is None else {
                "low": [P.print_formula(f) for f in d.failing_partition[0]],
                "high": [P.print_formula(f) for f in d.failing_partition[1]]}
            return (0 if d.answer == "yes" else 1), {
                "verdict": d.answer, "witness": witness,
                "components": {"certified": d.certified}}
        m = fx("bool2")
        d = P.decide_with_axioms(m, P.AxiomSet("cli", P.parse_formula_list(spec[1], m.sig)),
                                 P.parse_formula_list(spec[2], m.sig),
                                 P.parse_formula(spec[3], m.sig))
        return (0 if d.answer == "yes" else 2), {
            "verdict": d.answer, "bounds": {"depth": 2, "instances": d.instances_used}}


WORKLOADS = {w.name: w for w in (Analysis, Queries, Combine, Cli)}
