"""Analysis tools: value separators, saturation refutation, split advice.

A separator for two values is a one-variable formula whose possible-value
set at one of them lies inside the designated set and at the other outside
it, both non-empty (strict separation: a set that meets both designated and
undesignated values separates nothing); a matrix is monadic (over a
subsignature) when every pair of distinct usable values has one.  The
saturation refuter searches, within explicit bounds, for a finitely generated theory witnessing that a matrix
fails to be saturated.  Split advice combines the two with a divergence
battery comparing a matrix against the strict product of two of its reducts.
The product entails no more than the matrix, so the battery asks the matrix
only where the product refutes; like the refuter, it indexes its formulas
once and lets the countermodels the engine keeps refute many queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import (
    Closure, PremiseContext, Verdict, decide_multiple, decide_single, possible_value_vector,
)
from .matrix_core import PNMatrix, reduct, strict_product, viable_components
from .syntax import (
    App,
    Formula,
    Signature,
    Var,
    formula_key,
    formula_size,
    print_formula,
    print_formula_list,
)


def _check_bounds(**bounds: int) -> None:
    """Reject a negative bound by name."""
    for name, n in bounds.items():
        if n < 0:
            raise ValueError(f"{name} must be at least 0, got {n}")


# ---------------------------------------------------------------------------
# one-variable formula enumeration
# ---------------------------------------------------------------------------

def formula_pool(
    sig: Signature, variables: Sequence[str], max_depth: int, cap: int
) -> list[Formula]:
    """The first `cap` formulas over the given variables up to the given
    depth, in ``formula_key`` order.

    Built size by size: a formula of size s applies a connective to
    arguments whose sizes sum to s - 1, so each size needs only smaller
    ones, and the pool stops at the size that reaches the cap.  Without a
    variable or a constant nothing can be built, and the pool is empty.
    """
    _check_bounds(max_depth=max_depth, cap=cap)
    connectives = [(c, k) for c, k in sig if k > 0]
    leaves = list(dict.fromkeys(
        [Var(v) for v in variables] + [App(c, ()) for c, k in sig if k == 0]
    ))
    if not leaves:
        return []
    depth = dict.fromkeys(leaves, 0)
    by_size: list[list[Formula]] = [[], leaves]  # formulas of each size
    widest = max((k for _, k in connectives), default=0)
    largest = sum(widest**d for d in range(max_depth + 1))  # of a formula this deep
    out = sorted(leaves, key=formula_key)[:cap]
    size = 1
    while len(out) < cap and size < largest:
        size += 1
        level = []
        for c, k in connectives:
            for cuts in itertools.combinations(range(1, size - 1), k - 1):
                parts = [b - a for a, b in zip((0,) + cuts, cuts + (size - 1,))]
                choices = [[a for a in by_size[p] if depth[a] < max_depth] for p in parts]
                for args in itertools.product(*choices):
                    f = App(c, args)
                    depth[f] = 1 + max(depth[a] for a in args)
                    level.append(f)
        by_size.append(level)
        out += sorted(level, key=formula_key)[: cap - len(out)]
    return out


# ---------------------------------------------------------------------------
# separators and monadicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatorBounds:
    max_depth: int = 3
    max_candidates: int = 5000

    def __post_init__(self):
        _check_bounds(**vars(self))


def _candidate_vectors(m: PNMatrix, max_depth: int):
    """Formulas in the variable p with their possible-value vectors,
    level-wise, generated as they are asked for.

    Formulas whose vector duplicates an earlier one still appear as
    candidates but are never used to build deeper formulas, which keeps the
    level growth bounded by the number of distinct vectors.
    """
    seen: set[tuple[frozenset[str], ...]] = set()
    generators: list[Formula] = []
    level: list[Formula] = sorted(
        [Var("p")] + [App(c, ()) for c, k in m.sig if k == 0], key=formula_key
    )
    depth = 0
    while level:
        fresh: list[Formula] = []
        for f in level:
            vec = possible_value_vector(m, f)
            yield f, vec
            if vec not in seen:
                seen.add(vec)
                fresh.append(f)
        if depth >= max_depth or not fresh:
            break
        fresh_set = set(fresh)
        generators += fresh
        nxt: set[Formula] = set()
        for c, k in m.sig:  # a nullary c has no argument tuple holding a fresh one
            for args in itertools.product(generators, repeat=k):
                if any(a in fresh_set for a in args):
                    nxt.add(App(c, tuple(args)))
        level = sorted(nxt, key=formula_key)
        depth += 1


def _first_separators(m: PNMatrix, pairs, bounds: SeparatorBounds) -> dict:
    """Each pair's first separator in candidate order, or None.

    Candidates are pulled only while some pair still lacks a separator.
    """
    found = dict.fromkeys(pairs)
    todo = list(found)
    candidates = itertools.islice(_candidate_vectors(m, bounds.max_depth), bounds.max_candidates)
    while todo and (candidate := next(candidates, None)):
        f, vec = candidate
        # per value of p: whether f is designated there, when it always is or
        # never is; None when f takes no value or both kinds (nothing separates)
        side = {}
        for v, s in zip(m.values, vec):
            kinds = {x in m.designated for x in s}
            side[v] = kinds.pop() if len(kinds) == 1 else None
        for x, y in todo:
            if {side[x], side[y]} == {True, False}:
                found[x, y] = f
        todo = [p for p in todo if found[p] is None]
    return found


def find_separator(
    m: PNMatrix,
    x: str,
    y: str,
    bounds: SeparatorBounds = SeparatorBounds(),
) -> Optional[Formula]:
    """First one-variable formula (in enumeration order) separating x from y:
    designated whenever its variable is one of them, undesignated whenever
    it is the other.  The search stops there.  No formula separates a value
    from itself."""
    for v in (x, y):
        if v not in m.values:
            raise ValueError(f"unknown value {v!r}")
    if x == y:
        raise ValueError(f"cannot separate value {x!r} from itself")
    return _first_separators(m, [(x, y)], bounds)[x, y]


@dataclass(frozen=True)
class SeparatorTable:
    pairs: tuple[tuple[tuple[str, str], Optional[Formula]], ...]
    monadic: bool
    usable: frozenset[str]
    spurious: frozenset[str]
    bounds: SeparatorBounds

    def separator(self, x: str, y: str) -> Optional[Formula]:
        for (a, b), f in self.pairs:
            if {a, b} == {x, y}:
                return f
        raise KeyError((x, y))

    def separators_used(self) -> frozenset[Formula]:
        return frozenset(f for _, f in self.pairs if f is not None)


def monadicity_report(
    m: PNMatrix,
    sub_sig: Optional[Signature] = None,
    bounds: SeparatorBounds = SeparatorBounds(),
) -> SeparatorTable:
    """Separator search for every pair of distinct usable values; the one
    search stops once every pair is separated.

    With sub_sig, separators are drawn from that subsignature only (the
    search runs over the corresponding reduct, values unchanged).
    """
    mr = reduct(m, sub_sig) if sub_sig is not None else m
    report = viable_components(mr)
    usable = [v for v in mr.values if v in report.usable]
    found = _first_separators(mr, list(itertools.combinations(usable, 2)), bounds)
    return SeparatorTable(
        pairs=tuple(found.items()),
        monadic=all(f is not None for f in found.values()),
        usable=frozenset(usable),
        spurious=report.spurious,
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# saturation refutation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefutationBounds:
    max_vars: int = 3
    max_depth: int = 2
    max_pool: int = 24
    max_premises: int = 2
    max_phi: int = 3

    def __post_init__(self):
        _check_bounds(**vars(self))
        if self.max_vars > 5:  # the pool's variables are p, q, r, s and t
            raise ValueError(f"max_vars must be at most 5, got {self.max_vars}")


@dataclass(frozen=True)
class SaturationWitness:
    """A theory base and a finite set it entails collectively but not singly.

    decide_multiple(m, gamma0, phi) is yes while decide_single(m, gamma0, a)
    is no for every a in phi; no single valuation can then realize the theory
    generated by gamma0, so the matrix is not saturated.
    """

    gamma0: tuple[Formula, ...]
    phi: tuple[Formula, ...]

    def pretty(self) -> str:
        return f"{print_formula_list(self.gamma0)} |- {print_formula_list(self.phi)}"


@dataclass(frozen=True)
class RefutationResult:
    refuted: bool
    witness: Optional[SaturationWitness]
    bounds: RefutationBounds
    theories_checked: int


def check_saturation_witness(m: PNMatrix, w: SaturationWitness) -> list[str]:
    """Independent re-verification of a witness; empty list means valid."""
    problems = []
    if not w.phi:
        problems.append("witness needs a non-empty right-hand side")
    if decide_multiple(m, w.gamma0, w.phi).answer != "yes":
        problems.append("gamma0 does not entail phi collectively")
    for a in w.phi:
        if decide_single(m, w.gamma0, a).answer != "no":
            problems.append(f"{print_formula(a)} already follows singly from gamma0")
    return problems


def _bases(pool: list[Formula], most: int):
    """Every combination of at most ``most`` pool formulas, by size sum and
    then by their sorted texts, each in pool order; made one size sum at a
    time, so a caller that stops early sorts no later sum.

    The pool is in ``formula_key`` order, so a combination in pool order
    takes its formulas of each size, in pool order, before the larger ones.
    No two combinations share a key, since distinct formulas print apart.
    """
    groups: dict[int, list[Formula]] = {}  # the pool's formulas of each size
    for f in pool:
        groups.setdefault(formula_size(f), []).append(f)
    sizes = sorted(groups)

    def summing(start: int, left: int, total: int):
        """The combinations of at most ``left`` formulas, all of sizes
        ``sizes[start:]``, whose sizes sum to ``total``."""
        if total == 0:
            yield ()
            return
        for i in range(start, len(sizes)):
            s = sizes[i]
            if s > total:
                break
            for c in range(1, min(left, total // s) + 1):
                for rest in summing(i + 1, left - c, total - c * s):
                    for head in itertools.combinations(groups[s], c):
                        yield head + rest

    texts = {f: print_formula(f) for f in pool}
    largest = sum(sorted(map(formula_size, pool), reverse=True)[:most])
    for total in range(largest + 1):
        yield from sorted(summing(0, most, total), key=lambda g: sorted([texts[f] for f in g]))


def refute_saturation(
    m: PNMatrix, bounds: RefutationBounds = RefutationBounds()
) -> RefutationResult:
    """Bounded search for a saturation counterexample.

    Candidate theory bases are drawn from a size-ordered pool of formulas;
    for each base, the pool formulas it does not entail singly are collected,
    and a base is explored further only if it entails that collection as a
    whole (otherwise no subset can witness).  A negative result only means
    no witness exists within these bounds.

    Bases come by size sum and then by their sorted texts.  They are made
    one size sum at a time and sorted only within it (``_bases``), so a
    matrix refuted at its first base builds no other.

    Each base below ``max_premises`` formulas keeps its context and the set
    of pool formulas it entails.  A base entails, by monotonicity, whatever
    its sub-bases one formula smaller entail, and every such sub-base has a
    smaller size sum, so it was checked before; those formulas are not
    asked again.  The rest are swept by ``PremiseContext.unentailed``.  A
    base's context is that of its sub-base without the last formula, grown
    by it (``PremiseContext.with_premise``), so its fixpoints are grown
    rather than rebuilt, and every context shares the countermodels the
    engine keeps: a sweep, a collective check (``PremiseContext.entails``)
    or a witness check that a countermodel kept for an earlier base or
    query answers asks no search (see the ``engine`` module docstring).

    The witness loop tries the subsets phi of n, smallest first, from two
    formulas on: the base entails no formula of n singly, so no single one
    is a witness.  Every fact used is exact, so ``refuted``, ``witness``
    and ``theories_checked`` are those of one search per pool formula and
    base.
    """
    variables = ("p", "q", "r", "s", "t")[: bounds.max_vars]
    pool = formula_pool(m.sig, variables, bounds.max_depth, cap=bounds.max_pool)
    # one context per base answers all its queries over the pool's closure
    root = PremiseContext(m, Closure(pool, m.sig), ())
    # per base below max_premises: its context and the pool formulas it entails
    below: dict[tuple[Formula, ...], tuple[PremiseContext, set[Formula]]] = {}
    checked = 0
    for gamma0 in _bases(pool, bounds.max_premises):
        checked += 1
        # gamma0[:-1] has a smaller size sum, so it came before
        context = below[gamma0[:-1]][0].with_premise(gamma0[-1]) if gamma0 else root
        subs = itertools.combinations(gamma0, len(gamma0) - 1) if gamma0 else ()
        entailed = set(gamma0).union(*(below[g][1] for g in subs))
        n = context.unentailed(pool, entailed)
        if len(gamma0) < bounds.max_premises:
            below[gamma0] = context, set(pool).difference(n)
        if not n or not context.entails(n):
            continue
        for size in range(2, bounds.max_phi + 1):  # gamma0 entails no single a in n
            for phi in itertools.combinations(n, size):
                if context.entails(phi):
                    witness = SaturationWitness(gamma0=gamma0, phi=phi)
                    return RefutationResult(
                        refuted=True,
                        witness=witness,
                        bounds=bounds,
                        theories_checked=checked,
                    )
    return RefutationResult(
        refuted=False, witness=None, bounds=bounds, theories_checked=checked
    )


# ---------------------------------------------------------------------------
# split advice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    premise: Formula
    conclusion: Formula
    matrix_verdict: Verdict
    product_verdict: Verdict

    def pretty(self) -> str:
        return (
            f"{print_formula(self.premise)} |- {print_formula(self.conclusion)}: "
            f"matrix says {self.matrix_verdict.answer}, "
            f"split product says {self.product_verdict.answer}"
        )


@dataclass(frozen=True)
class SplitVerdict:
    verdict: str  # "split-safe-multiple" | "split-safe-single-conditional" | "unsafe-evidence" | "inconclusive"
    divergences: tuple[Divergence, ...]
    separators: SeparatorTable
    saturation: RefutationResult
    samples_run: int


def _battery(forms: list[Formula], samples: int) -> list[tuple[Formula, Formula]]:
    """The first ``samples`` ordered pairs of distinct forms, by size sum and
    then by the texts of the two; made one size sum at a time, up to the sum
    that fills ``samples``."""
    groups: dict[int, list[Formula]] = {}  # the forms of each size
    for f in forms:
        groups.setdefault(formula_size(f), []).append(f)
    texts = {f: print_formula(f) for f in forms}
    pairs: list[tuple[Formula, Formula]] = []
    for total in range(2, 2 * max(groups, default=0) + 1):
        if len(pairs) >= samples:
            break
        level = [
            (a, b)
            for s, firsts in groups.items()
            for a in firsts
            for b in groups.get(total - s, ())
            if a != b
        ]
        level.sort(key=lambda ab: (texts[ab[0]], texts[ab[1]]))
        pairs += level[: samples - len(pairs)]
    return pairs


def split_advice(
    m: PNMatrix,
    sig1: Signature,
    sig2: Signature,
    samples: int = 200,
) -> SplitVerdict:
    """Assess splitting a matrix into its sig1/sig2 reducts.

    Runs a deterministic battery of one-variable single-premise queries
    against the strict product of the two reducts, then a separator search
    over the shared subsignature and a saturation refutation on the matrix
    itself to pick a verdict.  A divergence is hard evidence the split loses
    consequences.

    The product can only be weaker: whatever it entails, m entails.  Take a
    countermodel over m within a viable component W and pair each value
    with itself, x to (x, x).  The pairs (x, x) for x in W are product
    values, and they form a viable set of the product: its entry on them
    holds (y, y) for every y in m's entry, since a connective both reducts
    keep gives m's entry on each side, and one a side lacks leaves that
    side unconstrained.  A pair is designated when x is, so the paired
    valuation is a countermodel over the product.  Hence m is asked only
    about the pairs the product refutes, and the divergences are exactly
    the product's "no"s that m entails.

    The battery's pairs come by size sum, then by the texts of premise and
    conclusion.  They are made one size sum at a time, up to the sum that
    fills ``samples`` (``_battery``), so no later pair is built or sorted.

    Both sides index the battery's formulas once.  Per premise, the product
    sweeps its conclusions (``PremiseContext.unentailed``), and m sweeps
    those the product refutes.  A premise's context on a side is that
    side's context without premises grown by it
    (``PremiseContext.with_premise``), so its fixpoints are propagated from
    the premise alone and it consults the countermodels the engine kept for
    the side's earlier premises.  A divergence's two verdicts are then
    decided on the premise's contexts; by the sub-closure argument of the
    ``engine`` module they are those of a closure of the query alone.  The
    divergences follow the battery's order.
    """
    _check_bounds(samples=samples)
    union = sig1.union(sig2)
    if not union.is_subsignature_of(m.sig):
        raise ValueError("split signatures must cover a subsignature of the matrix")
    shared = sig1.intersection(sig2)
    product = strict_product(reduct(m, sig1), reduct(m, sig2))
    pairs = _battery(formula_pool(union, ("p",), max_depth=2, cap=5000), samples)
    conclusions: dict[Formula, list[Formula]] = {}
    for a, b in pairs:
        conclusions.setdefault(a, []).append(b)
    cl = Closure(list(dict.fromkeys(itertools.chain.from_iterable(pairs))), union)
    product_root, m_root = PremiseContext(product, cl, ()), PremiseContext(m, cl, ())
    diverging = {}
    for a, bs in conclusions.items():
        product_context, m_context = product_root.with_premise(a), m_root.with_premise(a)
        refuted = product_context.unentailed(bs, set())
        unentailed = m_context.unentailed(refuted, set())
        for b in refuted:
            if b not in unentailed:
                diverging[a, b] = Divergence(
                    a, b, m_context.decide([b]), product_context.decide([b])
                )
    divergences = [diverging[ab] for ab in pairs if ab in diverging]
    separators = monadicity_report(m, shared)
    saturation = refute_saturation(m)
    if divergences:
        verdict = "unsafe-evidence"
    elif separators.monadic:
        verdict = (
            "split-safe-multiple"
            if saturation.refuted
            else "split-safe-single-conditional"
        )
    else:
        verdict = "inconclusive"
    return SplitVerdict(
        verdict=verdict,
        divergences=tuple(divergences),
        separators=separators,
        saturation=saturation,
        samples_run=len(pairs),
    )
