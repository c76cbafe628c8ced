"""Greedy heuristics on antichain families, plus factor measurement.

"The" greedy algorithm: order elements heaviest first (ties to the
lower index) and run first-in for maximization (add while the partial
solution still fits inside some member) or first-out for minimization
(remove while the rest still contains some member).  On antichains both
runs end exactly on a member, which is asserted.

The oracles are bitmask scans: member_with[e] is the bitmask, over
member indices, of the members containing e, so one big-int AND decides
each accept/reject.  A run clears the weighting's denominators once
(floats are converted exactly): the scan order and the greedy value are
taken on those ints, and the value is one Fraction over the common
denominator.  The wrong-strategy baseline (lightest first, opposite
heuristic) is kept only as a negative control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheck, UsageError
from .families import SetFamily, is_antichain, matroid_check, optimum, uniform_size
from .rationals import clear_denominators


@dataclass(frozen=True)
class GreedyRun:
    sense: str
    strategy: str
    solution: tuple        # chosen member, ascending 1-based elements
    value: Fraction
    optimum: Fraction
    ratio: Fraction        # >= 1; optimum/value for max, value/optimum for min
    order: tuple           # the element scan order used


def _first_in(family: SetFamily, order):
    member_with = family.element_member_masks()
    live = (1 << len(family.masks)) - 1
    chosen = 0
    for e in order:
        nxt = live & member_with[e]
        if nxt:
            live = nxt
            chosen |= 1 << (e - 1)
    return chosen


def _first_out(family: SetFamily, order):
    member_with = family.element_member_masks()
    live = (1 << len(family.masks)) - 1
    kept = (1 << family.n) - 1
    for e in order:
        nxt = live & ~member_with[e]
        if nxt:
            live = nxt
            kept &= ~(1 << (e - 1))
    return kept


def _finish(family, weights, w, den, sense, strategy, order, solution_mask) -> GreedyRun:
    if not family.has_member(solution_mask):
        raise InternalCheck("greedy did not end on a feasible solution")
    solution = tuple(
        e for e in range(1, family.n + 1) if solution_mask >> (e - 1) & 1
    )
    value = Fraction(sum(map(w.__getitem__, solution)), den)
    opt = optimum(family, weights, sense)
    if sense == "max":
        ratio = opt / value if value else Fraction(1)
    else:
        ratio = value / opt if opt else Fraction(1)
    if ratio < 1:
        raise InternalCheck("greedy beat the enumerated optimum")
    return GreedyRun(sense, strategy, solution, value, opt, ratio, order)


def _run(family: SetFamily, x, sense: str, strategy: str) -> GreedyRun:
    if sense not in ("min", "max"):
        raise UsageError("sense must be 'min' or 'max'")
    if not is_antichain(family):
        raise UsageError("greedy needs an antichain family")
    weights = list(x)
    if len(weights) != family.n:
        raise UsageError("weighting arity mismatch")
    nums, den = clear_denominators(weights)
    w = [0, *nums]  # w[e] = den * weight of element e; den > 0 keeps the order
    heaviest = strategy == "heaviest-first"
    # sorted is stable, reverse included: ties go to the lower index either way
    order = tuple(sorted(range(1, family.n + 1), key=w.__getitem__, reverse=heaviest))
    scan = _first_in if heaviest == (sense == "max") else _first_out
    return _finish(family, weights, w, den, sense, strategy, order, scan(family, order))


def greedy_run(family: SetFamily, x, sense: str) -> GreedyRun:
    """Heaviest-first best-in (max) / worst-out (min) greedy run."""
    return _run(family, x, sense, "heaviest-first")


def wrong_strategy_run(family: SetFamily, x, sense: str) -> GreedyRun:
    """Lightest-first with the opposite heuristic; unboundedly bad baseline."""
    return _run(family, x, sense, "lightest-first")


# ---------------------------------------------------------------------------
# Factor measurement


@dataclass(frozen=True)
class FactorEstimate:
    sense: str
    trials: int
    max_ratio: Fraction
    worst_weighting: tuple


def _structured_weightings(family: SetFamily, rng):
    """Adversarial patterns: member characteristics and two-member traps."""
    members = family.members()
    for member in members[: min(len(members), 20)]:
        w = [0] * family.n
        for e in member:
            w[e - 1] = 1
        yield w
    for _ in range(min(40, len(members) * 2)):
        a = rng.choice(members)
        b = rng.choice(members)
        if a == b:
            continue
        in_b = set(b)
        keep = [e for e in a if e not in in_b]
        if not keep:
            continue
        d = rng.randint(1, len(keep))
        picked = rng.sample(keep, d)
        c = Fraction(2 * d - 1, 2 * max(d - 1, 1)) if d > 1 else Fraction(2)
        w = [Fraction(0)] * family.n
        for e in picked:
            w[e - 1] = c
        for e in b:
            if e not in picked:
                w[e - 1] = Fraction(1)
        yield w


def greedy_factor_estimate(
    family: SetFamily, trials: int, seed: int, sense: str = "max"
) -> FactorEstimate:
    """Max observed greedy ratio over seeded random and structured weightings."""
    rng = random.Random(seed)
    worst = Fraction(0)
    worst_x = None
    count = 0
    for w in _structured_weightings(family, rng):
        run = greedy_run(family, w, sense)
        count += 1
        if run.ratio > worst:
            worst, worst_x = run.ratio, tuple(w)
    while count < trials:
        w = [rng.randint(0, 100) for _ in range(family.n)]
        run = greedy_run(family, w, sense)
        count += 1
        if run.ratio > worst:
            worst, worst_x = run.ratio, tuple(w)
    return FactorEstimate(sense, count, worst, worst_x)


def matroid_failure_witness(family: SetFamily, seed: int = 0):
    """Weighting with greedy ratio > 1 for a uniform non-matroid antichain.

    Built from an exchange-axiom violation (A, B, a): weight A minus a
    just above 1, the rest of B at 1.  Greedy then completes A while
    the optimum keeps B.  Falls back to a seeded random search.
    """
    check = matroid_check(family)
    if check.is_matroid:
        return None
    m = uniform_size(family)
    if check.witness is not None and m is not None:
        amem, bmem, a_elem = check.witness
        in_a = set(amem)
        q = len(set(bmem) - in_a)
        c = Fraction(2 * q - 1, 2 * (q - 1)) if q > 1 else Fraction(2)
        w = [Fraction(0)] * family.n
        for e in amem:
            if e != a_elem:
                w[e - 1] = c
        for e in bmem:
            if e not in in_a:
                w[e - 1] = Fraction(1)
        run = greedy_run(family, w, "max")
        if run.ratio > 1:
            return tuple(w), run
    rng = random.Random(seed)
    for _ in range(10_000):
        w = [rng.randint(0, 30) for _ in range(family.n)]
        run = greedy_run(family, w, "max")
        if run.ratio > 1:
            return tuple(w), run
    return None
