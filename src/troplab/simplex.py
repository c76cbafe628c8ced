"""Exact rational LP: a two-phase simplex.

The tableau is fraction-free.  Each row, the cost row included, is a
list of ints plus one positive denominator, and stands for the rational
row ints/den.  A pivot combines two rows by integer cross-multiplication
(fraction-free elimination in the style of Bareiss and Edmonds); a
pivot entry of 1 leaves the denominator as it is.  A row is divided by
the gcd of its entries and its denominator only once the denominator
passes _REDUCE_BITS bits: reduction changes how a row is written, not
the rational row it stands for.  The ratio test cross-multiplies, and
signs are read from the numerators, so every comparison is the one a
Fraction tableau would make and the pivot sequence is the same.
Bland's rule makes the simplex terminate without perturbation; the
artificial columns, last before the right-hand side, are sliced off
every row after phase 1, so phase 2 eliminates over the others only.
Objective and solution come back as Fractions.  The independent
Fourier-Motzkin oracle that cross-checks its feasibility verdicts lives
in the test suite (tests/fm_oracle.py), not here.

Variables are implicitly nonnegative (all uses here are convex
multipliers and scale factors).  Constraints are (coeffs, rel, rhs)
with rel one of "<=", ">=", "==" and ints or Fractions as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import UsageError
from .rationals import clear_denominators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    objective: Fraction | None = None
    solution: list | None = None


_REDUCE_BITS = 64  # rows are reduced by their gcd once den is longer


def _reduced(ints, den):
    """The (ints, den) pair divided by the gcd of all its entries."""
    g = gcd(den, *ints)
    if g > 1:
        return [v // g for v in ints], den // g
    return ints, den


def _eliminate(row, den, src, col):
    """row/den minus the multiple of src/src[col] that zeroes column col.

    src[col] must be positive.  Returns the (ints, den) pair of the
    result.  Entries where src is 0 are only scaled, a pivot entry of 1
    leaves den as it is, and the pair is reduced by its gcd only once
    den passes _REDUCE_BITS bits.
    """
    f = row[col]
    p = src[col]
    if p == 1:
        return [v - f * s if s else v for v, s in zip(row, src)], den
    new = [v * p - f * s if s else v * p for v, s in zip(row, src)]
    den *= p
    if den.bit_length() > _REDUCE_BITS:
        return _reduced(new, den)
    return new, den


def _pivot(rows, dens, basis, pr, pc, cost=None):
    """Make column pc the unit column of row pr; returns the new cost."""
    prow = rows[pr]
    if prow[pc] < 0:
        prow = [-v for v in prow]
    g = gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
    rows[pr] = prow
    dens[pr] = prow[pc]  # the pivot row divided by its pivot entry
    for r, row in enumerate(rows):
        if r != pr and row[pc]:
            rows[r], dens[r] = _eliminate(row, dens[r], prow, pc)
    if cost is not None and cost[0][pc]:
        cost = _eliminate(*cost, prow, pc)
    basis[pr] = pc
    return cost


def _price_out(cost, rows, basis):
    """Zero the cost of every basic column (each has a 1 in its row)."""
    for r, b in enumerate(basis):
        if cost[0][b]:
            cost = _eliminate(*cost, rows[r], b)
    return cost


def _run_simplex(rows, dens, cost, basis):
    """Minimize; Bland's rule (lowest eligible indices) for termination.

    Returns the status and the final cost row.
    """
    ncols = len(cost[0]) - 1
    while True:
        c = cost[0]
        entering = next((j for j in range(ncols) if c[j] < 0), None)
        if entering is None:
            return OPTIMAL, cost
        # The ratio of row r is row[-1] / row[entering]: dens cancel.
        leaving = None
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving, num, den = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                    leaving, num, den = r, row[-1], a
        if leaving is None:
            return UNBOUNDED, cost
        cost = _pivot(rows, dens, basis, leaving, entering, cost)


def solve_lp(objective, constraints, maximize: bool = False) -> LPResult:
    """Optimize objective . z over z >= 0 subject to the constraints."""
    nvars = len(objective)
    obj, obj_den = clear_denominators(objective)
    if maximize:
        obj = [-c for c in obj]

    parsed = []
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", ">=", "=="):
            raise UsageError(f"bad relation {rel!r}")
        ints, den = clear_denominators([*coeffs, rhs])
        if len(ints) - 1 != nvars:
            raise UsageError("constraint arity mismatch")
        if ints[-1] < 0:
            ints = [-c for c in ints]
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        parsed.append((ints, den, rel))

    nslack = sum(1 for _, _, rel in parsed if rel != "==")
    nart = sum(1 for _, _, rel in parsed if rel != "<=")
    ncols = nvars + nslack + nart

    rows = []
    dens = []
    basis = []
    slack_at = nvars
    art_at = nvars + nslack
    art_cols = []
    for ints, den, rel in parsed:
        row = ints[:-1] + [0] * (ncols - nvars) + ints[-1:]
        if rel == "<=":
            row[slack_at] = den
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == ">=":
                row[slack_at] = -den
                slack_at += 1
            row[art_at] = den
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        rows.append(row)
        dens.append(den)

    # Phase 1: minimize the sum of artificials.
    if art_cols:
        cost = [0] * (ncols + 1)
        for col in art_cols:
            cost[col] = 1
        cost = _price_out((cost, 1), rows, basis)
        status, cost = _run_simplex(rows, dens, cost, basis)
        assert status == OPTIMAL  # phase 1 is bounded below by 0
        if cost[0][-1] != 0:
            return LPResult(INFEASIBLE)
        # Pivot lingering zero-level artificials out, or drop empty rows;
        # then slice the artificial columns off (they are the last ones).
        ncols = art_cols[0]
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] >= ncols:
                row = rows[r]
                pc = next((j for j in range(ncols) if row[j]), None)
                if pc is None:
                    del rows[r]
                    del dens[r]
                    del basis[r]
                else:
                    _pivot(rows, dens, basis, r, pc)
        rows = [row[:ncols] + row[-1:] for row in rows]

    # Phase 2.
    cost = _price_out((obj + [0] * (ncols - nvars + 1), obj_den), rows, basis)
    status, cost = _run_simplex(rows, dens, cost, basis)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    solution = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            solution[b] = Fraction(rows[r][-1], dens[r])
    value = Fraction(-cost[0][-1], cost[1])
    if maximize:
        value = -value
    return LPResult(OPTIMAL, value, solution)
