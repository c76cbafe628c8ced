"""Exact LP engine and the Fourier-Motzkin oracle."""

import random
from fractions import Fraction

import pytest

from fm_oracle import fm_feasible
from troplab import simplex
from troplab.errors import UsageError
from troplab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_small_maximization():
    r = solve_lp([1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)], maximize=True)
    assert r.status == OPTIMAL
    assert r.objective == Fraction(14, 5)
    assert r.solution == [Fraction(8, 5), Fraction(6, 5)]


def test_equality_and_minimization():
    r = solve_lp([2, 3], [([1, 1], "==", 1)])
    assert r.status == OPTIMAL and r.objective == 2
    assert r.solution == [1, 0]


def test_infeasible():
    r = solve_lp([0], [([1], ">=", 2), ([1], "<=", 1)])
    assert r.status == INFEASIBLE


def test_unbounded():
    r = solve_lp([-1], [([0], "<=", 5)])
    assert r.status == UNBOUNDED


def test_negative_rhs_normalization():
    # -x <= -3  <=>  x >= 3
    r = solve_lp([1], [([-1], "<=", -3)])
    assert r.status == OPTIMAL and r.objective == 3


def test_degenerate_redundant_rows():
    r = solve_lp([1, 1], [([1, 1], "==", 1), ([2, 2], "==", 2), ([1, 0], ">=", 0)])
    assert r.status == OPTIMAL and r.objective == 1


def test_bad_relation():
    with pytest.raises(UsageError):
        solve_lp([1], [([1], "<", 1)])


def test_exact_fractions_survive():
    r = solve_lp(
        [Fraction(1, 3)],
        [([Fraction(2, 7)], ">=", Fraction(3, 11))],
    )
    assert r.status == OPTIMAL
    assert r.objective == Fraction(1, 3) * Fraction(3, 11) / Fraction(2, 7)


def test_fm_basic():
    # x >= 1, -x >= -2 (x <= 2) feasible; x <= 0 added -> infeasible
    rows = [([Fraction(1)], Fraction(1)), ([Fraction(-1)], Fraction(-2))]
    assert fm_feasible(rows, 1)
    rows.append(([Fraction(-1)], Fraction(0)))
    assert not fm_feasible(rows, 1)


def test_fm_agrees_with_simplex_on_random_systems():
    rng = random.Random(404)
    for _ in range(400):
        nv = rng.randint(1, 4)
        m = rng.randint(1, 6)
        cons = []
        fmrows = []
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(nv)]
            rhs = Fraction(rng.randint(-4, 4))
            rel = rng.choice(["<=", ">=", "=="])
            cons.append((coeffs, rel, rhs))
            if rel in (">=", "=="):
                fmrows.append((coeffs, rhs))
            if rel in ("<=", "=="):
                fmrows.append(([-c for c in coeffs], -rhs))
        for i in range(nv):
            unit = [Fraction(0)] * nv
            unit[i] = Fraction(1)
            fmrows.append((unit, Fraction(0)))
        assert (solve_lp([0] * nv, cons).status == OPTIMAL) == fm_feasible(fmrows, nv)


def test_lp_optimum_is_certified_by_feasibility_probes():
    """The optimum is attained: probing past it flips feasibility."""
    rng = random.Random(11)
    for _ in range(60):
        nv = rng.randint(1, 3)
        cons = [
            (
                [Fraction(rng.randint(0, 3)) for _ in range(nv)],
                "<=",
                Fraction(rng.randint(1, 9)),
            )
            for _ in range(rng.randint(1, 4))
        ]
        obj = [Fraction(rng.randint(0, 3)) for _ in range(nv)]
        r = solve_lp(obj, cons, maximize=True)
        if r.status != OPTIMAL:
            continue
        probe = solve_lp(
            [0] * nv, cons + [(obj, ">=", r.objective)], maximize=False
        )
        assert probe.status == OPTIMAL
        probe_hi = solve_lp(
            [0] * nv, cons + [(obj, ">=", r.objective + Fraction(1, 1000))]
        )
        assert probe_hi.status == INFEASIBLE


def _random_lp(rng):
    """A small LP with mixed relations, negative right-hand sides and rationals."""

    def num():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    nv = rng.randint(1, 4)
    cons = [
        ([num() for _ in range(nv)], rng.choice(["<=", ">=", "=="]), num())
        for _ in range(rng.randint(1, 5))
    ]
    return [num() for _ in range(nv)], cons, rng.random() < 0.5


def _holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _dual(objective, constraints, maximize):
    """The dual of min c.x (c = -objective when maximizing), in solve_lp's form.

    Dual variable y_i is >= 0 for a ">=" row, <= 0 for "<=" and free
    for "=="; it is written as signed nonnegative columns.
    """
    c = [-v for v in objective] if maximize else list(objective)
    cols = []
    for i, (_, rel, _) in enumerate(constraints):
        if rel != "<=":
            cols.append((i, 1))
        if rel != ">=":
            cols.append((i, -1))
    dual_obj = [s * constraints[i][2] for i, s in cols]
    dual_cons = [
        ([s * constraints[i][0][j] for i, s in cols], "<=", c[j])
        for j in range(len(c))
    ]
    return solve_lp(dual_obj, dual_cons, maximize=True)


def test_random_lps_agree_with_fm_and_duality():
    """Feasibility matches Fourier-Motzkin; optima are exact and dual-tight."""
    rng = random.Random(20240)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(500):
        objective, cons, maximize = _random_lp(rng)
        nv = len(objective)
        r = solve_lp(objective, cons, maximize=maximize)
        seen[r.status] += 1

        fmrows = [([Fraction(int(i == j)) for j in range(nv)], Fraction(0))
                  for i in range(nv)]
        for coeffs, rel, rhs in cons:
            if rel != "<=":
                fmrows.append((coeffs, rhs))
            if rel != ">=":
                fmrows.append(([-c for c in coeffs], -rhs))
        assert (r.status != INFEASIBLE) == fm_feasible(fmrows, nv)

        dual = _dual(objective, cons, maximize)
        if r.status == OPTIMAL:
            x = r.solution
            assert all(v >= 0 for v in x)
            for coeffs, rel, rhs in cons:
                assert _holds(sum(a * v for a, v in zip(coeffs, x)), rel, rhs)
            assert r.objective == sum(c * v for c, v in zip(objective, x))
            assert dual.status == OPTIMAL
            assert r.objective == (-dual.objective if maximize else dual.objective)
        elif r.status == UNBOUNDED:
            assert dual.status == INFEASIBLE
        else:
            assert dual.status in (INFEASIBLE, UNBOUNDED)
    assert min(seen.values()) > 50


def test_degenerate_lp_keeps_its_bland_solution():
    """Several optima (x3 is free along the optimal face) and ratio ties
    (a repeated row, a zero right-hand side): the vertex returned is the
    one Bland's rule reaches, so any other pivot rule fails here."""
    cons = [
        ([1, -1, 1, -1], "<=", 2),
        ([1, 2, 0, 1], "<=", 2),
        ([1, 2, 0, 1], "<=", 2),
        ([0, 1, 0, 0], "<=", 0),
    ]
    r = solve_lp([-1, -3, 0, -2], cons)
    assert r.status == OPTIMAL and r.objective == -4
    assert r.solution == [0, 0, 4, 2]
    other = solve_lp([-1, -3, 0, -2], cons + [([0, 0, 1, 0], "<=", 0)])
    assert other.objective == -4  # x3 = 0 is optimal too


def _fraction_simplex(objective, constraints, maximize=False):
    """A plain-Fraction two-phase Bland tableau with solve_lp's layout.

    Rows are normalized to a nonnegative right-hand side; columns are the
    variables, one slack per inequality and one artificial per ">=" or
    "==" row, in row order.  Entering is the lowest column with negative
    reduced cost, leaving the least ratio with ties to the lowest basic
    column; after phase 1, basic artificials are pivoted out on their
    row's lowest nonzero column (last row first) or their row dropped,
    and the artificial columns are deleted.
    """
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    parsed = []
    for coeffs, rel, rhs in constraints:
        row = [Fraction(c) for c in [*coeffs, rhs]]
        if row[-1] < 0:
            row, rel = [-c for c in row], flip[rel]
        parsed.append((row, rel))
    nv = len(objective)
    real = nv + sum(rel != "==" for _, rel in parsed)
    width = real + sum(rel != "<=" for _, rel in parsed)
    rows, basis = [], []
    slack, art = nv, real
    for row, rel in parsed:
        t = row[:-1] + [Fraction(0)] * (width - nv) + row[-1:]
        if rel != "==":
            t[slack] = Fraction(1 if rel == "<=" else -1)
            if rel == "<=":
                basis.append(slack)
            slack += 1
        if rel != "<=":
            t[art] = Fraction(1)
            basis.append(art)
            art += 1
        rows.append(t)

    def pivot(cost, r, c):
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [v - row[c] * w for v, w in zip(row, rows[r])]
        basis[r] = c
        return cost and [v - cost[c] * w for v, w in zip(cost, rows[r])]

    def price_out(cost):
        for r, b in enumerate(basis):
            cost = [v - cost[b] * w for v, w in zip(cost, rows[r])]
        return cost

    def run(cost):
        while True:
            entering = next((j for j, v in enumerate(cost[:-1]) if v < 0), None)
            if entering is None:
                return OPTIMAL, cost
            ratios = [(row[-1] / row[entering], basis[r], r)
                      for r, row in enumerate(rows) if row[entering] > 0]
            if not ratios:
                return UNBOUNDED, cost
            cost = pivot(cost, min(ratios)[2], entering)

    if width > real:
        _, cost = run(price_out([Fraction(int(j >= real)) for j in range(width)] + [0]))
        if cost[-1]:
            return INFEASIBLE, None, None
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] >= real:
                pc = next((j for j in range(real) if rows[r][j]), None)
                if pc is None:
                    del rows[r], basis[r]
                else:
                    pivot(None, r, pc)
        rows[:] = [row[:real] + row[-1:] for row in rows]
    sign = -1 if maximize else 1
    cost = [sign * Fraction(c) for c in objective] + [Fraction(0)] * (real - nv + 1)
    status, cost = run(price_out(cost))
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    solution = [Fraction(0)] * nv
    for r, b in enumerate(basis):
        if b < nv:
            solution[b] = rows[r][-1]
    return OPTIMAL, -sign * cost[-1], solution


def _big_lp(rng):
    """A feasible, bounded LP whose fraction-free denominators pass
    simplex._REDUCE_BITS: positive coefficients of up to 30 bits over
    up to 20, rows through a positive point or off it on their side."""
    def num():
        return Fraction(rng.randint(1, 10**9), rng.randint(1, 10**6))

    nv = 4
    point = [num() for _ in range(nv)]
    cons = []
    for rel in ("<=", ">=", "<=", "==", ">=", "<="):
        coeffs = [num() for _ in range(nv)]
        at = sum(c * x for c, x in zip(coeffs, point))
        slack = {"<=": num(), ">=": -num(), "==": 0}[rel]
        cons.append((coeffs, rel, at + slack))
    return [num() for _ in range(nv)], cons, True


def test_kernel_matches_fraction_tableau(monkeypatch):
    """Skipped multiplies, unit pivots, gcd reduction past the threshold
    and the sliced artificial columns change only how rows are written:
    status, objective and solution equal a plain Fraction tableau's."""
    reductions = []
    reduced = simplex._reduced
    monkeypatch.setattr(simplex, "_reduced",
                        lambda ints, den: reductions.append(den) or reduced(ints, den))
    rng = random.Random(20240)
    lps = [_random_lp(rng) for _ in range(500)]
    big = random.Random(64)
    lps += [_big_lp(big) for _ in range(20)]
    seen = set()
    for objective, cons, maximize in lps:
        r = solve_lp(objective, cons, maximize=maximize)
        assert (r.status, r.objective, r.solution) == \
            _fraction_simplex(objective, cons, maximize)
        seen.add(r.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert reductions
    assert all(den.bit_length() > simplex._REDUCE_BITS for den in reductions)
