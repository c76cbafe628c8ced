"""Exact LP engine and the Fourier-Motzkin oracle."""

import random
from fractions import Fraction

import pytest

from fm_oracle import fm_feasible
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
