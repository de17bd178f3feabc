"""Combining logics: product-based combination and context-partition decision.

The strict product of two matrices characterizes the join of their
multiple-conclusion logics.  For single-conclusion logics the same holds
only when both inputs are saturated, so the single-mode combinators either
demand saturation evidence or fall back to finite-power approximants.  The
context-partition decision procedure answers queries about the combined
logic through queries about the parts alone, two-sorting each formula by
treating maximal foreign subformulas as fresh variables.  Each part
skeletonises the query's context once, indexes it once and makes one premise
context of the query's premises over that index (``engine``); a partition's
context is that of the partition with one left formula fewer, grown by it.
Its answer is certified exact when the strict product of the parts is total,
which is read off the parts' tables without building the product.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .engine import Closure, PremiseContext, decide_single
from .matrix_core import PNMatrix, power, strict_product, strict_product_is_total
from .syntax import (
    Formula,
    MonolithMap,
    compile_schema,
    ill_formed_node,
    instantiate,
    print_formula,
    skeleton,
    subformula_closure,
)

if TYPE_CHECKING:
    from .analysis import RefutationResult

#: partition enumeration is exponential in the context size
CTX_CAP = 12
INSTANCE_CAP = 2000


@dataclass(frozen=True)
class CombinedLogic:
    left: PNMatrix
    right: PNMatrix
    product: PNMatrix
    mode: str  # "multiple" | "single"
    status: str  # "exact" | "conditional-on-saturation" | "finite-power-approximation"
    notes: tuple[str, ...] = ()


class SaturationRefused(ValueError):
    """Raised when a single-mode combination input is provably not saturated."""

    def __init__(self, side: str, result: RefutationResult):
        self.side = side
        self.result = result
        super().__init__(
            f"{side} input is not saturated (witness: {result.witness.pretty()}); "
            "its single-conclusion logic is not captured by the product"
        )


def combine_multiple(m1: PNMatrix, m2: PNMatrix) -> CombinedLogic:
    """The multiple-conclusion join; the product is exact unconditionally."""
    return CombinedLogic(
        left=m1, right=m2, product=strict_product(m1, m2), mode="multiple", status="exact"
    )


def combine_single_saturated(m1: PNMatrix, m2: PNMatrix) -> CombinedLogic:
    """Single-conclusion join via the product, guarded by saturation checks.

    Refuses when either input is provably unsaturated within the refuter's
    bounds.  The result is exact when both inputs are flagged as known
    saturated in their metadata, and conditional on saturation otherwise.
    """
    from .analysis import refute_saturation  # the one use of the analysis layer here

    for side, m in (("left", m1), ("right", m2)):
        if not m.meta.get("known_saturated"):
            result = refute_saturation(m)
            if result.refuted:
                raise SaturationRefused(side, result)
    both_known = all(m.meta.get("known_saturated") for m in (m1, m2))
    status = "exact" if both_known else "conditional-on-saturation"
    notes = () if both_known else (
        "saturation of the inputs was not refuted within bounds but is unproven",
    )
    return CombinedLogic(
        left=m1,
        right=m2,
        product=strict_product(m1, m2),
        mode="single",
        status=status,
        notes=notes,
    )


def combine_single_power(m1: PNMatrix, m2: PNMatrix, k: int) -> CombinedLogic:
    """Single-conclusion join approximated through finite k-th powers.

    Powers only approach saturation in the limit, so the result is labeled an
    approximation: it may still miss consequences of the true join, but every
    consequence it validates for the parts' common single-conclusion fragment
    is reliable once the powered inputs are saturated.
    """
    p1, p2 = power(m1, k), power(m2, k)
    return CombinedLogic(
        left=m1,
        right=m2,
        product=strict_product(p1, p2),
        mode="single",
        status="finite-power-approximation",
        notes=(f"inputs raised to power {k} before taking the product",),
    )


# ---------------------------------------------------------------------------
# context-partition decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedDecision:
    answer: str  # "yes" | "no"
    certified: bool
    mode: str
    context: tuple[Formula, ...]
    partitions_checked: int
    failing_partition: Optional[tuple[tuple[Formula, ...], tuple[Formula, ...]]] = None
    note: str = ""


def decide_combined_ctx(
    m1: PNMatrix,
    m2: PNMatrix,
    gamma: Iterable[Formula],
    delta: Iterable[Formula],
    mode: str = "multiple",
    ctx_extra: Iterable[Formula] = (),
) -> CombinedDecision:
    """Decide a query about the combined logic using only the two parts.

    The context is the subformula closure of the query (plus any extras);
    for every two-sided partition of it, the query padded with the partition
    must hold over one of the parts, with foreign subformulas abstracted to
    fresh variables.  Partitions that merely repeat a premise or conclusion
    on the opposite side hold trivially and are skipped.  The answer is
    certified exact when the strict product of the parts is total, which
    ``strict_product_is_total`` reads off the parts without building the
    product; so the build bound (``matrix_core.BUILD_CAP``) does not
    limit the parts.  Every context
    formula must be well formed over the union of the signatures (a
    connective declared with two arities raises first); a ValueError names
    the first bad subformula as the caller wrote it.

    Each side skeletonises every context formula once, under one
    ``MonolithMap`` and so one memo: the context is closed under
    subformulas, so each node is rebuilt once, from its arguments'
    skeletons.  Each side indexes one ``Closure`` over those skeletons, with
    one ``PremiseContext`` of gamma on it; the partition whose left part adds
    ``low`` to gamma asks that of ``low[:-1]`` grown by ``low[-1]``
    (``PremiseContext.with_premise``), once for the right side (multiple
    mode) or once per conclusion (single mode).  Only the contexts of the
    current size and the size before are kept.  A grown fixpoint equals a
    fresh one, since the greatest fixpoint is unique, so the searches are
    those of a fresh context per partition.  Skeletons under one map differ
    from those of a map per partition only by an injective renaming of
    variables, which consequence does not see.
    """
    if mode not in ("single", "multiple"):
        raise ValueError(f"bad mode {mode!r}")
    gamma = tuple(dict.fromkeys(gamma))
    delta = tuple(dict.fromkeys(delta))
    if mode == "single" and len(delta) != 1:
        raise ValueError("single mode takes exactly one conclusion")
    ctx = tuple(subformula_closure(gamma + delta + tuple(ctx_extra)))
    if len(ctx) > CTX_CAP:
        raise ValueError(
            f"context has {len(ctx)} formulas, exceeding the cap of {CTX_CAP}"
        )
    sig = m1.sig.union(m2.sig)  # raises on arity clash
    bad = ill_formed_node(ctx, sig)  # each node once, as the caller wrote it
    if bad is not None:
        raise ValueError(f"formula {print_formula(bad)} not well-formed over the combined signature")
    decision = functools.partial(
        CombinedDecision, certified=strict_product_is_total(m1, m2), mode=mode, context=ctx
    )
    if set(gamma) & set(delta):
        return decision("yes", partitions_checked=0, note="premises and conclusions overlap")
    # partitions placing a premise on the right or a conclusion on the left
    # hold by overlap, so only the remaining context formulas vary
    rest = [f for f in ctx if f not in gamma and f not in delta]
    skels, roots = [], []
    for m in (m1, m2):
        mm = MonolithMap()
        skel = {f: skeleton(f, m.sig, mm)[0] for f in ctx}
        skels.append(skel)
        roots.append(PremiseContext(m, Closure(list(skel.values()), m.sig), [skel[f] for f in gamma]))
    # by low part: each side's context of gamma + low, for this size and the one before
    contexts, previous = {(): roots}, {}
    checked = 0
    for size in range(len(rest) + 1):
        for low in itertools.combinations(rest, size):
            checked += 1
            if low:  # low[:-1] has one formula fewer, so its contexts are in previous
                contexts[low] = [c.with_premise(s[low[-1]]) for c, s in zip(previous[low[:-1]], skels)]
            right = tuple(f for f in rest if f not in low) + delta
            asks = [right] if mode == "multiple" else [(b,) for b in right]
            if not any(c.decide([s[f] for f in ask]).answer == "yes"
                       for c, s in zip(contexts[low], skels) for ask in asks):
                return decision("no", partitions_checked=checked, failing_partition=(gamma + low, right))
        previous, contexts = contexts, {}  # the next size reads only this one
    return decision("yes", partitions_checked=checked)


# ---------------------------------------------------------------------------
# axiom strengthening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomSet:
    name: str
    axioms: tuple[Formula, ...]


@dataclass(frozen=True)
class AxiomDecision:
    answer: str  # "yes" | "unknown"
    depth_used: int
    instances_used: int
    note: str = ""


def axiom_instances(
    axioms: Iterable[Formula], universe: Sequence[Formula], cap: int = INSTANCE_CAP
) -> list[Formula]:
    """Instances of the axioms under all substitutions into the universe.

    Deterministic order: axioms in the given order, substitution targets in
    the universe's order, for the axiom's variables in name order.  Raises
    ValueError past the instance cap, before building a schema whose
    instances alone pass it: distinct substitutions of an axiom's variables
    give distinct instances.  Each axiom is compiled once
    (``syntax.compile_schema``), so an instance costs one node look-up per
    compound node of the axiom, and a subformula repeated in it is built
    once.
    """
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    universe = list(dict.fromkeys(universe))
    out: list[Formula] = []
    seen: set[Formula] = set()
    for ax in axioms:
        schema = compile_schema(ax)
        if len(universe) ** len(schema[0]) > cap:
            raise ValueError(f"more than {cap} axiom instances")
        for targets in itertools.product(universe, repeat=len(schema[0])):
            inst = instantiate(schema, targets)
            if inst not in seen:
                seen.add(inst)
                out.append(inst)
                if len(out) > cap:
                    raise ValueError(f"more than {cap} axiom instances")
    return out


def decide_with_axioms(
    m: PNMatrix,
    axioms: AxiomSet,
    gamma: Iterable[Formula],
    a: Formula,
    max_depth: int = 2,
) -> AxiomDecision:
    """Semi-decision of consequence strengthened by axiom schemata.

    The axioms are instantiated over a growing universe of subformulas
    (starting from the query's own, then closing over the instances found);
    the query holds if at some depth the premises plus the instances entail
    the conclusion over the matrix.  A negative search outcome only yields
    "unknown": deeper instantiation might still succeed.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    gamma = tuple(dict.fromkeys(gamma))
    universe = subformula_closure(gamma + (a,))
    instances: list[Formula] = []
    for depth in range(1, max_depth + 1):
        try:
            instances = axiom_instances(axioms.axioms, universe, cap=INSTANCE_CAP)
        except ValueError as e:
            return AxiomDecision(
                answer="unknown", depth_used=depth, instances_used=0, note=str(e)
            )
        if decide_single(m, gamma + tuple(instances), a).answer == "yes":
            return AxiomDecision(
                answer="yes", depth_used=depth, instances_used=len(instances)
            )
        universe = subformula_closure(list(universe) + instances)
    return AxiomDecision(
        answer="unknown",
        depth_used=max_depth,
        instances_used=len(instances),
        note="no derivation found at this instantiation depth",
    )
