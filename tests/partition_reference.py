"""Reference for ``decide_combined_ctx``: the partition loop that skeletonises
every partition afresh and asks a new closure each time.

Each partition gets a fresh ``MonolithMap`` per side, and is decided by
``decide_multiple`` (multiple mode) or by ``decide_single`` per conclusion
(single mode).  The library answers the same partitions from one skeleton
map and one indexed closure per side; every field of the two decisions must
agree.
"""

import itertools

from pnmatrix import (
    CombinedDecision,
    MonolithMap,
    decide_multiple,
    decide_single,
    skeleton,
    strict_product,
    subformula_closure,
)
from pnmatrix.combine import CTX_CAP


def _skeletonize(formulas, sig, mm):
    return [skeleton(f, sig, mm)[0] for f in formulas]


def _part_holds(m, sig, left, right, mode):
    mm = MonolithMap()
    sleft = _skeletonize(left, sig, mm)
    sright = _skeletonize(right, sig, mm)
    if mode == "multiple":
        return decide_multiple(m, sleft, sright).answer == "yes"
    return any(decide_single(m, sleft, b).answer == "yes" for b in sright)


def reference_decide_combined_ctx(m1, m2, gamma, delta, mode="multiple", ctx_extra=()):
    if mode not in ("single", "multiple"):
        raise ValueError(f"bad mode {mode!r}")
    gamma = tuple(dict.fromkeys(gamma))
    delta = tuple(dict.fromkeys(delta))
    if mode == "single" and len(delta) != 1:
        raise ValueError("single mode takes exactly one conclusion")
    ctx = tuple(subformula_closure(gamma + delta + tuple(ctx_extra)))
    if len(ctx) > CTX_CAP:
        raise ValueError(f"context has {len(ctx)} formulas, exceeding the cap of {CTX_CAP}")
    certified = strict_product(m1, m2).is_total()
    if set(gamma) & set(delta):
        return CombinedDecision(
            answer="yes",
            certified=certified,
            mode=mode,
            context=ctx,
            partitions_checked=0,
            note="premises and conclusions overlap",
        )
    rest = [f for f in ctx if f not in gamma and f not in delta]
    checked = 0
    for size in range(len(rest) + 1):
        for low in itertools.combinations(rest, size):
            low_set = set(low)
            high = tuple(f for f in rest if f not in low_set)
            checked += 1
            left = gamma + low
            right = high + delta
            if _part_holds(m1, m1.sig, left, right, mode):
                continue
            if _part_holds(m2, m2.sig, left, right, mode):
                continue
            return CombinedDecision(
                answer="no",
                certified=certified,
                mode=mode,
                context=ctx,
                partitions_checked=checked,
                failing_partition=(tuple(gamma) + low, high + tuple(delta)),
            )
    return CombinedDecision(
        answer="yes", certified=certified, mode=mode, context=ctx, partitions_checked=checked
    )
