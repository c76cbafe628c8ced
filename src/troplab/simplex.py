"""Exact rational LP: a two-phase simplex.

Everything runs on `fractions.Fraction`; Bland's rule makes the simplex
terminate without perturbation.  The independent Fourier-Motzkin oracle
that cross-checks its feasibility verdicts lives in the test suite
(tests/fm_oracle.py), not here.

Variables are implicitly nonnegative (all uses here are convex
multipliers and scale factors).  Constraints are (coeffs, rel, rhs)
with rel one of "<=", ">=", "==".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    objective: Fraction | None = None
    solution: list | None = None


def _pivot(rows, cost, basis, pr, pc):
    pivot_row = rows[pr]
    inv = Fraction(1) / pivot_row[pc]
    rows[pr] = [v * inv for v in pivot_row]
    pivot_row = rows[pr]
    for r, row in enumerate(rows):
        if r != pr and row[pc]:
            factor = row[pc]
            rows[r] = [v - factor * p for v, p in zip(row, pivot_row)]
    if cost[pc]:
        factor = cost[pc]
        for j, p in enumerate(pivot_row):
            cost[j] -= factor * p
    basis[pr] = pc


def _run_simplex(rows, cost, basis):
    """Minimize; Bland's rule (lowest eligible indices) for termination."""
    ncols = len(cost) - 1
    while True:
        entering = None
        for j in range(ncols):
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for r, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, cost, basis, leaving, entering)


def solve_lp(objective, constraints, maximize: bool = False) -> LPResult:
    """Optimize objective . z over z >= 0 subject to the constraints."""
    nvars = len(objective)
    obj = [Fraction(c) for c in objective]
    if maximize:
        obj = [-c for c in obj]

    rows = []
    rels = []
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", ">=", "=="):
            raise UsageError(f"bad relation {rel!r}")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != nvars:
            raise UsageError("constraint arity mismatch")
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append((coeffs, rhs))
        rels.append(rel)

    nslack = sum(1 for rel in rels if rel != "==")
    nart = sum(1 for rel in rels if rel != "<=")
    ncols = nvars + nslack + nart

    tableau = []
    basis = []
    slack_at = nvars
    art_at = nvars + nslack
    art_cols = []
    for (coeffs, rhs), rel in zip(rows, rels):
        row = coeffs + [Fraction(0)] * (ncols - nvars) + [rhs]
        if rel == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(row)

    # Phase 1: minimize the sum of artificials.
    if art_cols:
        cost = [Fraction(0)] * (ncols + 1)
        for col in art_cols:
            cost[col] = Fraction(1)
        for r, b in enumerate(basis):
            if cost[b]:
                factor = cost[b]
                for j in range(ncols + 1):
                    cost[j] -= factor * tableau[r][j]
        status = _run_simplex(tableau, cost, basis)
        assert status == OPTIMAL  # phase 1 is bounded below by 0
        if -cost[-1] != 0:
            return LPResult(INFEASIBLE)
        # Pivot lingering zero-level artificials out, or drop empty rows.
        art_set = set(art_cols)
        for r in range(len(tableau) - 1, -1, -1):
            if basis[r] in art_set:
                pc = next(
                    (
                        j
                        for j in range(ncols)
                        if j not in art_set and tableau[r][j] != 0
                    ),
                    None,
                )
                if pc is None:
                    del tableau[r]
                    del basis[r]
                else:
                    dummy = [Fraction(0)] * (ncols + 1)
                    _pivot(tableau, dummy, basis, r, pc)
        for row in tableau:
            for col in art_cols:
                row[col] = Fraction(0)

    # Phase 2.
    cost = [Fraction(0)] * (ncols + 1)
    for j, c in enumerate(obj):
        cost[j] = c
    for col in art_cols if art_cols else ():
        cost[col] = Fraction(0)
    for r, b in enumerate(basis):
        if cost[b]:
            factor = cost[b]
            for j in range(ncols + 1):
                cost[j] -= factor * tableau[r][j]
    status = _run_simplex(tableau, cost, basis)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    solution = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[r][-1]
    value = -cost[-1]
    if maximize:
        value = -value
    return LPResult(OPTIMAL, value, solution)
