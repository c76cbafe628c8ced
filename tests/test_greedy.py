"""Greedy runs, wrong-strategy baseline, factor estimation."""

from fractions import Fraction
from itertools import combinations

import pytest

from troplab.errors import UsageError
from troplab.families import SetFamily
from troplab.generators import (
    HypergraphSpec,
    graham_sloane_matroid,
    hypergraph_matchings,
)
from troplab.greedy import (
    GreedyRun,
    greedy_factor_estimate,
    greedy_run,
    matroid_failure_witness,
    wrong_strategy_run,
)

F = Fraction


def star_family(m):
    return SetFamily(m + 1, [(1,), tuple(range(2, m + 2))])


def test_star_example_exact_values():
    fam = star_family(3)
    x = [F(20, 19), 1, 1, 1]
    run = greedy_run(fam, x, "max")
    assert run.value == F(20, 19)
    assert run.optimum == 3
    assert run.ratio == F(57, 20)
    assert run.ratio > F(9, 10) * 3
    run_min = greedy_run(fam, x, "min")
    assert run_min.value == 3 and run_min.optimum == F(20, 19)
    assert run_min.ratio == F(57, 20)


def test_matroid_is_exact(rng):
    fam = SetFamily(4, list(combinations(range(1, 5), 2)))
    for _ in range(300):
        x = [rng.randint(0, 30) for _ in range(4)]
        for sense in ("max", "min"):
            assert greedy_run(fam, x, sense).ratio == 1


def test_solution_is_always_feasible(rng):
    fam = hypergraph_matchings(HypergraphSpec(3, 2))
    members = set(fam.members())
    for _ in range(200):
        x = [rng.randint(0, 9) for _ in range(fam.n)]
        for sense in ("max", "min"):
            run = greedy_run(fam, x, sense)
            assert run.solution in members


def test_determinism():
    fam = star_family(4)
    x = [2, 1, 1, 1, 1]
    runs = [greedy_run(fam, x, "max") for _ in range(3)]
    assert all(r == runs[0] for r in runs)


def test_tie_break_lowest_index_first():
    # two disjoint singletons with equal weight: index order decides
    fam = SetFamily(2, [(1,), (2,)])
    run = greedy_run(fam, [5, 5], "max")
    assert run.solution == (1,)
    assert run.order == (1, 2)


def test_antichain_required():
    with pytest.raises(UsageError):
        greedy_run(SetFamily(2, [(1,), (1, 2)]), [1, 1], "max")


def test_wrong_strategy_path_example():
    fam = SetFamily(3, [(1, 3), (2,)])
    big = 10**6
    x = [0, 1, big]
    run = wrong_strategy_run(fam, x, "max")
    assert run.value == 1 and run.optimum == big
    run_min = wrong_strategy_run(fam, x, "min")
    assert run_min.value == big and run_min.optimum == 1
    # the proper strategies are fine on the same instance
    assert greedy_run(fam, x, "max").ratio == 1
    assert greedy_run(fam, x, "min").ratio == 1


def test_wrong_strategy_on_matroid_no_guarantee():
    fam = SetFamily(4, list(combinations(range(1, 5), 2)))
    run = wrong_strategy_run(fam, [1, 2, 3, 4], "max")
    assert run.ratio >= 1  # nothing stronger is claimed


def test_factor_estimate_star_reaches_tightness():
    fam = star_family(5)
    est = greedy_factor_estimate(fam, 300, 17)
    assert est.max_ratio <= 5
    run = greedy_run(fam, [F(20, 19), 1, 1, 1, 1, 1], "max")
    assert max(est.max_ratio, run.ratio) >= F(9, 10) * 5


def test_factor_estimate_bounded_by_m(rng):
    for fam in (
        star_family(4),
        hypergraph_matchings(HypergraphSpec(3, 2)),
        graham_sloane_matroid(6, 3),
    ):
        m = max(mask.bit_count() for mask in fam.masks)
        est = greedy_factor_estimate(fam, 500, 23)
        assert est.max_ratio <= m


def test_matchings_ratio_at_most_k():
    for m, k in [(2, 2), (3, 2), (3, 3)]:
        fam = hypergraph_matchings(HypergraphSpec(m, k))
        est = greedy_factor_estimate(fam, 400, 31)
        assert est.max_ratio <= k


def test_matroid_failure_witness():
    bad = SetFamily(4, [(1, 2), (3, 4)])
    found = matroid_failure_witness(bad)
    assert found is not None
    weighting, run = found
    assert run.ratio > 1
    assert greedy_run(bad, list(weighting), "max").ratio == run.ratio
    # matroids yield no witness
    assert matroid_failure_witness(graham_sloane_matroid(6, 3)) is None


def test_zero_weights_ratio_one():
    fam = star_family(3)
    assert greedy_run(fam, [0, 0, 0, 0], "max").ratio == 1
    assert greedy_run(fam, [0, 0, 0, 0], "min").ratio == 1


def reference_run(family, x, sense, strategy):
    """A greedy run in plain Fraction arithmetic, by set scans."""
    weights = list(x)
    n = family.n
    heaviest = strategy == "heaviest-first"
    sign = -1 if heaviest else 1
    order = tuple(sorted(range(1, n + 1), key=lambda e: (sign * weights[e - 1], e)))
    members = [set(m) for m in family.members()]
    if heaviest == (sense == "max"):  # first-in
        chosen = set()
        for e in order:
            if any(chosen | {e} <= m for m in members):
                chosen.add(e)
    else:  # first-out
        chosen = set(range(1, n + 1))
        for e in order:
            if any(m <= chosen - {e} for m in members):
                chosen.discard(e)
    value = Fraction(0)
    for e in sorted(chosen):
        value += Fraction(weights[e - 1])
    totals = []
    for m in members:
        total = Fraction(0)
        for e in m:
            total += Fraction(weights[e - 1])
        totals.append(total)
    opt = max(totals) if sense == "max" else min(totals)
    if sense == "max":
        ratio = opt / value if value else Fraction(1)
    else:
        ratio = value / opt if opt else Fraction(1)
    return GreedyRun(sense, strategy, tuple(sorted(chosen)), value, opt, ratio, order)


def random_antichain(rng, n, uniform):
    if uniform:
        k = rng.randint(1, n)
        sets = [rng.sample(range(1, n + 1), k) for _ in range(rng.randint(1, 8))]
        return SetFamily(n, sets)
    masks = []
    for _ in range(rng.randint(1, 12)):
        m = rng.randint(1, (1 << n) - 1)
        if all(m & o not in (m, o) for o in masks):
            masks.append(m)
    return SetFamily(n, masks)


def random_weighting(rng, n, kind):
    def entry(kind):
        if kind == "int":
            return rng.randint(0, 20)
        if kind == "fraction":  # coprime denominators
            return F(rng.randint(0, 60), rng.choice((3, 7, 11)))
        if kind == "float":
            return rng.choice((0.1, 0.2, 0.3, 0.30000000000000004, 1.5, rng.random() * 10))
        return entry(rng.choice(("int", "fraction", "float")))

    if kind == "zero":
        return [rng.choice((0, F(0), 0.0)) for _ in range(n)]
    if kind == "tied":  # few distinct values, so ties decide the order
        pool = [entry(rng.choice(("int", "fraction", "float"))) for _ in range(2)]
        return [rng.choice(pool) for _ in range(n)]
    return [entry(kind) for _ in range(n)]


def test_runs_match_fraction_reference():
    import random

    rng = random.Random(1414)
    kinds = ("int", "fraction", "float", "mixed", "zero", "tied")
    for trial in range(600):
        uniform = trial // len(kinds) % 2 == 0  # every kind meets both shapes
        family = random_antichain(rng, rng.randint(1, 8), uniform)
        x = random_weighting(rng, family.n, kinds[trial % len(kinds)])
        for sense in ("max", "min"):
            for run, strategy in ((greedy_run, "heaviest-first"),
                                  (wrong_strategy_run, "lightest-first")):
                got = run(family, x, sense)
                want = reference_run(family, x, sense, strategy)
                assert got == want, (family.members(), x, sense, strategy)
                assert repr(got) == repr(want)
                assert all(type(v) is Fraction for v in (got.value, got.optimum, got.ratio))
