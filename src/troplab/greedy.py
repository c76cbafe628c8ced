"""Greedy heuristics on antichain families, plus factor measurement.

"The" greedy algorithm: order elements heaviest first (ties to the
lower index) and run first-in for maximization (add while the partial
solution still fits inside some member) or first-out for minimization
(remove while the rest still contains some member).  On antichains both
runs end exactly on a member, which is asserted.

The oracles are bitmask scans: member_with[e] is the bitmask, over
member indices, of the members containing e, so one big-int AND decides
each accept/reject.  The wrong-strategy baseline (lightest first,
opposite heuristic) is kept only as a negative control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheck, UsageError
from .families import SetFamily, Weighting, is_antichain, matroid_check, optimum, uniform_size


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


def _finish(family, weights, sense, strategy, order, solution_mask) -> GreedyRun:
    if not family.has_member(solution_mask):
        raise InternalCheck("greedy did not end on a feasible solution")
    value = Fraction(0)
    e = 1
    m = solution_mask
    while m:
        if m & 1:
            value += Fraction(weights[e - 1])
        m >>= 1
        e += 1
    opt = optimum(family, weights, sense)
    if sense == "max":
        ratio = opt / value if value else Fraction(1)
    else:
        ratio = value / opt if opt else Fraction(1)
    if ratio < 1:
        raise InternalCheck("greedy beat the enumerated optimum")
    solution = tuple(
        e for e in range(1, family.n + 1) if solution_mask >> (e - 1) & 1
    )
    return GreedyRun(sense, strategy, solution, value, opt, ratio, order)


def _weights_of(x):
    return list(x.values if isinstance(x, Weighting) else x)


def _run(family: SetFamily, x, sense: str, strategy: str) -> GreedyRun:
    if sense not in ("min", "max"):
        raise UsageError("sense must be 'min' or 'max'")
    if not is_antichain(family):
        raise UsageError("greedy needs an antichain family")
    weights = _weights_of(x)
    if len(weights) != family.n:
        raise UsageError("weighting arity mismatch")
    heaviest = strategy == "heaviest-first"
    sign = -1 if heaviest else 1  # ties go to the lower index either way
    order = tuple(sorted(range(1, family.n + 1), key=lambda e: (sign * weights[e - 1], e)))
    scan = _first_in if heaviest == (sense == "max") else _first_out
    return _finish(family, weights, sense, strategy, order, scan(family, order))


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
        keep = [e for e in a if e not in set(b)]
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
        q = len(set(bmem) - set(amem))
        c = Fraction(2 * q - 1, 2 * (q - 1)) if q > 1 else Fraction(2)
        w = [Fraction(0)] * family.n
        for e in amem:
            if e != a_elem:
                w[e - 1] = c
        for e in bmem:
            if e not in set(amem):
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
