"""Certifier: dominance queries, factor certification, semantic degree."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import boolean_function_of, random_tropical_circuit, simple_path_vectors
from fm_oracle import fm_cross_check
from troplab import certify
from troplab.builders import bellman_ford_circuit, selection_circuit
from troplab.certify import (
    Certificate,
    DominanceQuery,
    FactorResult,
    arithmetic_witness_check,
    boolean_bound_check,
    boolean_versions_agree,
    bounded_copy_checks,
    certify_max,
    certify_min,
    exact_factor,
    is_zero_one_antichain,
    lp_feasible,
    semantic_degree,
    verify_certificate,
)
from troplab.circuits import (
    ARITHMETIC,
    BOOLEAN,
    MAXPLUS,
    MINPLUS,
    Add,
    Circuit,
    Mul,
    Var,
    VectorSet,
    evaluate,
    produced_set,
    strip_constants,
    support,
)
from troplab.errors import DegenerateCircuit, UsageError
from troplab.families import SetFamily, similar
from troplab.simplex import OPTIMAL, solve_lp

H = Fraction(1, 2)


def test_lp_feasible_midpoint():
    cert = lp_feasible(DominanceQuery((H, H), ((1, 0), (0, 1)), "below"))
    assert cert.feasible
    lam = dict(cert.coefficients)
    assert lam[(1, 0)] == H and lam[(0, 1)] == H


def test_lp_feasible_sum_obstruction():
    cert = lp_feasible(DominanceQuery((1, 1), ((1, 0), (0, 1)), "below"))
    assert not cert.feasible


def test_lp_feasible_member_indicator():
    for direction in ("below", "above"):
        cert = lp_feasible(DominanceQuery((1, 0), ((1, 0), (0, 1)), direction))
        assert cert.feasible
        assert dict(cert.coefficients) == {(1, 0): 1}


def test_empty_tight_filter_is_a_verdict():
    cert = lp_feasible(DominanceQuery((1, 1), ((1, 0),), "above", tight=True))
    assert not cert.feasible and "support" in cert.note


def test_filter_notes():
    # (1, 0) lies inside supp(1, 1) and below it, but no generator's
    # support equals supp(1, 1)
    gens = VectorSet(2, [(1, 0), (0, 3)])
    assert lp_feasible(DominanceQuery((1, 1), gens, "above")).note == "pointwise"
    tight = lp_feasible(DominanceQuery((1, 1), gens, "above", tight=True))
    assert (tight.feasible, tight.coefficients, tight.note) == (
        False, None, "empty support filter")
    # no generator's support lies inside supp(1, 0)
    gens = VectorSet(2, [(1, 1), (0, 2)])
    above = lp_feasible(DominanceQuery((1, 0), gens, "above"))
    assert (above.feasible, above.coefficients, above.note) == (
        False, None, "no generators inside the target support")
    # admissible generators, none pointwise below: the LP decides, with
    # (3, 3) filtered out and (1, 3) never admitted
    gens = VectorSet(2, [(2, 0), (0, 2), (3, 3), (1, 3)])
    lp = lp_feasible(DominanceQuery((1, 1), gens, "above"))
    assert lp.feasible and lp.note == ""
    assert dict(lp.coefficients) == {(0, 2): Fraction(1, 2), (2, 0): Fraction(1, 2)}
    miss = lp_feasible(DominanceQuery((1, 0), VectorSet(2, [(2, 0), (1, 1)]), "above"))
    assert (miss.feasible, miss.note) == (False, "")


@pytest.mark.parametrize("target, gens, direction, message", [
    ((1, 0), ((1, 0), (1, 0, 0)), "below", "generator arity mismatch"),
    ((1, 0, 0), ((1, 0),), "above", "generator arity mismatch"),
    ((1, 0, 0), VectorSet(2, [(1, 0)]), "below", "generator arity mismatch"),
    ((1, 0), (), "below", "empty generator set"),
    ((1, 0), ((1, 0),), "sideways", "direction must be below/above"),
    ((1, 0), VectorSet(2, []), "below", "empty generator set"),
    ((1, 0), ((1, 0), (2, -1)), "below", "negative entry"),
    ((1, 0), ((1, 0), (H, 1)), "above", "non-integer entry"),
])
def test_dominance_query_rejects_bad_input(target, gens, direction, message):
    with pytest.raises(UsageError, match=message):
        DominanceQuery(target, gens, direction)


def test_witnesses_reverify():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = tuple(
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 6))
        )
        u = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n))
        q = DominanceQuery(u, gens, rng.choice(("below", "above")))
        cert = lp_feasible(q)
        assert verify_certificate(cert, q)


def test_tampered_certificate_fails_verification():
    q = DominanceQuery((H, H), ((1, 0), (0, 1)), "below")
    bad = Certificate(True, (H, H), "below", (((1, 0), Fraction(1)),))
    assert not verify_certificate(bad, q)


@pytest.mark.parametrize("broken", [
    "negative multiplier", "not a generator", "support mismatch",
    "sum not one", "no dominance",
])
def test_each_certificate_check_rejects_its_tamper(broken):
    """Each tamper breaks exactly one check; the untampered cert passes."""
    gens = ((2, 2), (0, 1), (1, 0), (1, 1))
    q = DominanceQuery((1, Fraction(3, 2)), gens, "below", tight=True)
    good = (((1, 1), H), ((2, 2), H))  # combination (3/2, 3/2)
    coeffs = {
        "negative multiplier": (((2, 2), Fraction(3, 2)), ((1, 1), -H)),
        "not a generator": (((3, 3), Fraction(1)),),
        "support mismatch": (((0, 1), H), ((2, 2), H)),
        "sum not one": (((1, 1), Fraction(2)),),
        "no dominance": (((1, 1), Fraction(1)),),
    }[broken]
    assert verify_certificate(Certificate(True, q.target, "below", good), q)
    assert not verify_certificate(Certificate(True, q.target, "below", coeffs), q)
    if broken == "support mismatch":
        loose = DominanceQuery(q.target, gens, "below")
        assert verify_certificate(Certificate(True, q.target, "below", coeffs), loose)


def test_above_certificate_checks_every_coordinate():
    q = DominanceQuery((2, 2), ((1, 3), (3, 1), (1, 1)), "above")
    mixed = (((1, 3), H), ((3, 1), H))  # combination (2, 2)
    assert verify_certificate(Certificate(True, q.target, "above", mixed), q)
    single = (((1, 3), Fraction(1)),)  # 2 >= 3 fails on the second coordinate
    assert not verify_certificate(Certificate(True, q.target, "above", single), q)


def _first_pointwise_hit(target, gens, direction, tight):
    """The fast path's answer by brute force: the first admissible
    generator, in sorted order, that dominates the target entry by entry
    as Fractions; None when there is none."""
    def supp(v):
        return frozenset(i for i, c in enumerate(v) if c)

    for v in sorted(set(gens)):
        if tight and supp(v) != supp(target):
            continue
        if direction == "above" and not supp(v) <= supp(target):
            continue
        pairs = [(Fraction(u), Fraction(g)) for u, g in zip(target, v)]
        if all(u <= g if direction == "below" else u >= g for u, g in pairs):
            return v
    return None


def _random_entry(rng, negative, fractional):
    x = rng.randint(-3 if negative else 0, 4)
    return Fraction(x, rng.randint(1, 4)) if fractional and rng.random() < 0.5 else x


def test_pointwise_fast_path_matches_first_hit_scan():
    """Generators are nonnegative ints, the whole domain a query accepts;
    targets may be negative or fractional."""
    rng = random.Random(4242)
    hits = misses = 0
    shapes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        negative, fractional = rng.random() < 0.4, rng.random() < 0.5
        gens = [tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        shape = rng.choice(("zero", "one", "many", "many"))
        target = tuple(
            _random_entry(rng, negative, fractional)
            if shape == "many" or (shape == "one" and i == 0) else 0
            for i in range(n)
        )
        shapes.add((shape, negative, fractional))
        for direction in ("below", "above"):
            for tight in (False, True):
                hit = _first_pointwise_hit(target, gens, direction, tight)
                cert = lp_feasible(DominanceQuery(target, gens, direction, tight))
                if hit is None:
                    misses += 1
                    assert cert.note != "pointwise"
                else:
                    hits += 1
                    assert cert == Certificate(True, target, direction,
                                               ((hit, Fraction(1)),), note="pointwise")
    assert hits > 300 and misses > 300
    assert len(shapes) == 3 * 2 * 2


def _reference_combination_lp(target, gens, below, scaled):
    """_combination_lp with per-coordinate tuple projections and rows."""
    coords = [i for i, c in enumerate(target) if c]
    reps = {}
    for v in gens:
        reps.setdefault(tuple(v[i] for i in coords), v)
    keys = sorted(reps)
    rel = ">=" if below else "<="
    constraints = []
    for ci, coord in enumerate(coords):
        row = [key[ci] for key in keys]
        if scaled:
            constraints.append((row + [-target[coord]], rel, 0))
        else:
            constraints.append((row, rel, target[coord]))
    constraints.append(([1] * len(keys) + ([0] if scaled else []), "==", 1))
    objective = [0] * len(keys) + ([1] if scaled else [])
    return [reps[key] for key in keys], solve_lp(objective, constraints,
                                                 maximize=scaled and below)


def _dominates(u, v, below):
    """u dominates v as a scale-LP column: u >= v (below) or u <= v."""
    return u != v and all(x >= y if below else x <= y for x, y in zip(u, v))


def test_combination_lp_columns_match_tuple_projection():
    """Feasibility LPs equal the unpruned reference exactly.  Scale LPs
    keep exactly the reference's undominated columns, in order, and reach
    the reference's status and objective with a solution that is feasible
    for the reference LP."""
    rng = random.Random(77)
    pruned = 0
    for k in range(120):
        n = rng.randint(1, 6)
        table = sorted({
            tuple(_random_entry(rng, False, k % 2) for _ in range(n))
            for _ in range(rng.randint(1, 10))})
        width = (0, 1, n)[k % 3]
        coords = sorted(rng.sample(range(n), width))
        target = tuple(_random_entry(rng, False, True) or 1 if i in coords else 0
                       for i in range(n))
        shuffled = list(table)
        rng.shuffle(shuffled)  # the first generator of each projection is kept
        for gens in (table, shuffled):
            for below in (True, False):
                assert certify._combination_lp(target, gens, below, False) == \
                    _reference_combination_lp(target, gens, below, False)

                reps, result = certify._combination_lp(target, gens, below, True)
                ref_reps, ref = _reference_combination_lp(target, gens, below, True)
                assert (result.status, result.objective) == (ref.status, ref.objective)
                project = {rep: tuple(rep[i] for i in coords) for rep in ref_reps}
                undominated = [rep for rep in ref_reps if not any(
                    _dominates(project[o], project[rep], below) for o in ref_reps)]
                assert reps == undominated
                for rep in set(ref_reps) - set(reps):
                    assert any(_dominates(project[o], project[rep], below) for o in reps)
                pruned += len(ref_reps) - len(reps)
                if result.status != OPTIMAL:
                    continue  # an empty target leaves t unbounded
                # the pruned optimum, put on the reference's columns, is a
                # feasible point of the reference LP with the same value
                lam = dict(zip(reps, result.solution))
                t = result.solution[-1]
                assert t == result.objective and sum(lam.values()) == 1
                for i in coords:
                    comb = sum(lam.get(rep, 0) * rep[i] for rep in ref_reps)
                    assert comb >= t * target[i] if below else comb <= t * target[i]
    assert pruned > 100


def _lp_columns(query):
    """The generators lp_feasible hands its LP when the fast path misses."""
    vs, umask = query.generators, support(query.target)
    if query.tight:
        return list(vs.with_support(umask))
    if query.direction == "below":
        return vs.sorted_vectors()
    return [v for v, m in vs.masks.items() if m | umask == umask]


def _counting_bound_queries(rng):
    """(target, generators, direction, tight, target kind) per query.

    Boundary cases first, where the target sum meets the bound, then
    random queries with int, Fraction and mixed-sign targets, each in
    both directions.  At most 6 generators on 5 coordinates: on 7 to 10,
    elimination can run for over a minute on one query.
    """
    yield (1, 1), ((2, 0), (0, 2)), "below", False, "int"  # sum 2 = max 2, feasible
    yield (1, 1), ((2, 0), (0, 2)), "above", False, "int"  # sum 2 = min 2, feasible
    yield (H, H), ((1, 0), (0, 1)), "below", False, "fraction"  # 2/2 = max 1, feasible
    yield (1, 1), ((0, 0), (2, 0), (0, 2)), "below", False, "int"  # min 0 < 2 <= max
    yield (1, 1), ((2, 0), (0, 2), (2, 2)), "above", False, "int"  # min 2 <= 2 < max
    yield (5, -1), ((1, 1), (2, 0)), "below", False, "negative"  # 4 > max 2
    for k in range(300):
        n = rng.randint(1, 5)
        gens = tuple(tuple(rng.randint(0, 4) for _ in range(n))
                     for _ in range(rng.randint(1, 6)))
        kind = ("int", "fraction", "negative")[k % 3]
        if kind == "int":
            target = tuple(rng.randint(0, 4) for _ in range(n))
        elif kind == "fraction":
            target = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n))
        else:
            target = [Fraction(rng.randint(-2, 6), rng.randint(1, 2)) for _ in range(n)]
            target[rng.randrange(n)] = -rng.randint(1, 3)
            target = tuple(target)
        tight = rng.random() < 0.2
        for direction in ("below", "above"):
            yield target, gens, direction, tight, kind


def test_counting_bound_refutes_without_the_simplex(monkeypatch):
    """A target whose sum over its support exceeds every column's (below)
    or falls short of every column's (above) is refuted before the
    simplex.  Every verdict equals solve_lp's on the same columns and,
    up to 12 generators, the Fourier-Motzkin oracle's; a spy on the
    simplex binding shows which refutations never reached it."""
    solve = certify.solve_lp
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(certify, "solve_lp", spy)
    refuted, by_simplex, feasible = Counter(), Counter(), Counter()
    with fm_cross_check() as stats:
        for target, gens, direction, tight, kind in _counting_bound_queries(
                random.Random(1616)):
            query = DominanceQuery(target, gens, direction, tight)
            before = len(calls)
            cert = certify.lp_feasible(query)
            columns = _lp_columns(query)
            _, ref = _reference_combination_lp(
                target, columns, direction == "below", False) if columns else (None, None)
            assert cert.feasible == (ref is not None and ref.status == OPTIMAL), query
            if cert.feasible:
                feasible[direction] += 1
            elif cert.note == "":
                assert cert == Certificate(False, target, direction)
                if len(calls) == before:
                    refuted[direction, kind] += 1
                else:
                    by_simplex[direction] += 1
        assert stats["checked"] > 500
    assert all(refuted[d, kind] for d in ("below", "above")
               for kind in ("int", "fraction", "negative")), refuted
    assert sum(refuted.values()) > 150
    assert min(by_simplex["below"], by_simplex["above"]) > 20
    assert min(feasible["below"], feasible["above"]) > 50


def test_fm_cross_check_counts_and_agrees():
    with fm_cross_check() as stats:
        before = stats["checked"]
        certify.lp_feasible(DominanceQuery((1, 1), ((1, 0), (0, 1)), "below"))
        certify.lp_feasible(DominanceQuery((H, H), ((1, 0), (0, 1)), "below"))
        assert stats["checked"] >= before + 2


def test_lp_feasible_agrees_with_oracle_on_random_queries():
    """Every verdict on <= 12 generators and <= 8 coordinates is replayed
    through elimination; a disagreement would raise inside the context."""
    rng = random.Random(1212)
    with fm_cross_check() as stats:
        before = stats["checked"]
        for _ in range(300):
            n = rng.randint(1, 8)
            gens = tuple(
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 12))
            )
            u = tuple(
                Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)
            )
            q = DominanceQuery(u, gens, rng.choice(("below", "above")),
                               tight=rng.random() < 0.2)
            cert = certify.lp_feasible(q)
            assert verify_certificate(cert, q)
        assert stats["checked"] > before


# ---------------------------------------------------------------------------
# certify_max / certify_min


def pair_family():
    return VectorSet(4, [(1, 1, 0, 0), (0, 0, 1, 1)])


def test_certify_min_routes_each_query_through_lp_feasible(monkeypatch):
    """One call per produced vector and one per feasible vector, made
    through the module binding, each on A or on the produced set itself."""
    c = bellman_ford_circuit(5, 1, 2, MINPLUS)
    a = simple_path_vectors(5, 1, 2)
    decide = certify.lp_feasible
    queries = []

    def spy(query):
        queries.append(query)
        return decide(query)

    monkeypatch.setattr(certify, "lp_feasible", spy)
    bundle = certify_min(c, a, 1)
    assert bundle.verdict
    assert len(queries) == len(produced_set(c)) + len(a)
    assert {id(q.generators) for q in queries} == {id(a), id(produced_set(c))}


def test_certify_max_selection_against_dense_pairs():
    sel = selection_circuit(4, 1)
    assert certify_max(sel, pair_family(), 2).verdict
    assert not certify_max(sel, pair_family(), Fraction(3, 2)).verdict


def test_certify_exact_when_produced_equals_A():
    sel = selection_circuit(3, 1)
    a = produced_set(sel)
    assert certify_max(sel, a, 1).verdict
    assert exact_factor(sel, a, "max").value == 1


def test_certify_max_rejects_r_below_one():
    with pytest.raises(UsageError):
        certify_max(selection_circuit(2, 1), pair_family(), H)


def test_certify_min_examples():
    c = Circuit(MINPLUS, 2, [("v1", Var(1)), ("v2", Var(2)),
                             ("g1", Mul("v1", "v2")), ("g2", Mul("g1", "g1"))], "g2")
    a = VectorSet(2, [(1, 1)])
    assert produced_set(c).sorted_vectors() == [(2, 2)]
    assert certify_min(c, a, 2).verdict
    assert not certify_min(c, a, Fraction(3, 2)).verdict
    assert exact_factor(c, a, "min").value == 2


def test_certify_min_general_route_matches_antichain_route():
    # same instance but force the general path with a non-0-1 target set
    c = Circuit(MINPLUS, 2, [("v1", Var(1)), ("v2", Var(2)),
                             ("g1", Mul("v1", "v2")), ("g2", Mul("g1", "g1"))], "g2")
    a_scaled = VectorSet(2, [(2, 2)])
    assert certify_min(c, a_scaled, 1).verdict
    assert exact_factor(c, a_scaled, "min").value == 1


def test_exact_factor_invalid_and_infinite():
    # invalid: produced vector (1,0) not below conv{(0,1)}
    c = Circuit(MAXPLUS, 2, [("v1", Var(1))], "v1")
    res = exact_factor(c, VectorSet(2, [(0, 1)]), "max")
    assert res.status == "invalid"
    # infinite: B = {e1} covers only coordinate 1, A needs coordinate 2
    res2 = exact_factor(c, VectorSet(2, [(1, 1)]), "max")
    assert res2.status == "infinite"
    # min sense: empty support filter
    cm = Circuit(MINPLUS, 2, [("v1", Var(1)), ("v2", Var(2)),
                              ("g", Mul("v1", "v2"))], "g")
    res3 = exact_factor(cm, VectorSet(2, [(1, 0)]), "min")
    assert res3 == FactorResult("infinite", witness=(1, 0))
    # tight validity: min(x1, x2, x3) against the 0-1 antichain {x1 + x2, x3};
    # (1,0,0) and (0,1,0) contain no member's support, and the witness is
    # the least of them in sorted order
    c3 = Circuit(MINPLUS, 3, [("v1", Var(1)), ("v2", Var(2)), ("v3", Var(3)),
                              ("g1", Add("v1", "v2")), ("g2", Add("g1", "v3"))], "g2")
    res4 = exact_factor(c3, VectorSet(3, [(1, 1, 0), (0, 0, 1)]), "min")
    assert res4 == FactorResult("invalid", witness=(0, 1, 0))


def test_monotonicity_in_r(rng):
    sel = selection_circuit(4, 1)
    a = pair_family()
    res = exact_factor(sel, a, "max")
    r = res.value
    assert certify_max(sel, a, r).verdict
    assert certify_max(sel, a, r + 1).verdict
    if r - Fraction(1, 1000) >= 1:
        assert not certify_max(sel, a, r - Fraction(1, 1000)).verdict


def test_certified_implies_pointwise_bounds(rng):
    """certify_max true => f(x)/r <= value <= f(x) on sampled weightings."""
    sel = selection_circuit(4, 2)
    a = VectorSet(4, [(1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)])
    r = Fraction(3, 2)
    assert certify_max(sel, a, r).verdict
    for _ in range(1000):
        x = [rng.randint(0, 9) for _ in range(4)]
        f = max(sum(ai * xi for ai, xi in zip(av, x)) for av in a)
        value = evaluate(sel, x)
        assert Fraction(f, 1) / r <= value <= f
    for bits in range(16):
        x = [(bits >> i) & 1 for i in range(4)]
        f = max(sum(ai * xi for ai, xi in zip(av, x)) for av in a)
        assert Fraction(f, 1) / r <= evaluate(sel, x) <= f


def test_homogeneity_of_tropical_values(rng):
    for _ in range(25):
        c, _ = random_tropical_circuit(rng, with_constants=False)
        x = [rng.randint(0, 9) for _ in range(c.n)]
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = [lam * xi for xi in x]
        assert evaluate(c, scaled) == lam * evaluate(c, x)


# ---------------------------------------------------------------------------
# semantic degree


def test_semantic_degree_b_superset_of_a():
    c = Circuit(BOOLEAN, 2, [("v1", Var(1)), ("v2", Var(2)),
                             ("g", Add("v1", "v2"))], "g")
    a = VectorSet(2, [(1, 0), (0, 1)])
    assert semantic_degree(c, a) == 1


def test_semantic_degree_squared_variable():
    c = Circuit(BOOLEAN, 1, [("v1", Var(1)), ("g", Mul("v1", "v1"))], "g")
    assert semantic_degree(c, VectorSet(1, [(1,)])) == 2


def test_semantic_degree_bellman_ford():
    for n in (4, 5):
        c = bellman_ford_circuit(n, 1, 2, BOOLEAN)
        a = simple_path_vectors(n, 1, 2)
        assert semantic_degree(c, a) == 1


def test_semantic_degree_precondition():
    c = Circuit(BOOLEAN, 2, [("v1", Var(1)), ("v2", Var(2)),
                             ("g", Mul("v1", "v2"))], "g")
    with pytest.raises(UsageError):
        semantic_degree(c, VectorSet(2, [(1, 0)]))
    with pytest.raises(UsageError):
        semantic_degree(c, VectorSet(2, [(1, 0), (1, 1)]))  # not an antichain


def test_is_zero_one_antichain():
    assert is_zero_one_antichain(VectorSet(2, [(1, 0), (0, 1)]))
    assert not is_zero_one_antichain(VectorSet(2, [(1, 0), (1, 1)]))
    assert not is_zero_one_antichain(VectorSet(2, [(2, 0)]))
    rng = random.Random(306)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        a = VectorSet(n, [[rng.randint(0, 1) for _ in range(n)]
                          for _ in range(rng.randint(1, 8))])
        sups = list(a.supports())
        expected = not any(s != t and s & t == s for s in sups for t in sups)
        assert is_zero_one_antichain(a) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# bounded copies, boolean bound, arithmetic witness


def test_bounded_copy_checks():
    a = VectorSet(1, [(1,)])
    b1 = VectorSet(1, [(1,), (3,)])
    rep = bounded_copy_checks(a, b1, 1)
    assert rep.sufficient_all
    b2 = VectorSet(1, [(2,)])
    rep2 = bounded_copy_checks(a, b2, 2)
    assert rep2.sufficient_all and not rep2.necessary_violations
    # degree-2 instance: the copy bound r|a|-|a|+r = 3 admits the (2,) copy
    assert rep2.necessary_bound[0][1] == 3
    rep3 = bounded_copy_checks(a, b2, 1)
    assert not rep3.sufficient_all and rep3.necessary_violations


def test_boolean_bound_check_on_certified_circuit():
    c = bellman_ford_circuit(4, 1, 2, MINPLUS)
    a = simple_path_vectors(4, 1, 2)
    assert exact_factor(c, a, "min").value == 1
    assert boolean_bound_check(c, a)


def test_boolean_bound_negative_control():
    a = simple_path_vectors(4, 1, 2)
    corrupted = VectorSet(a.n, list(a.sorted_vectors())[1:])
    assert not boolean_versions_agree(corrupted, a)


def _vector_set_pair(rng, n):
    """Two random vector sets; about half the time with equal boolean functions."""
    def draw():
        return tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n))

    a = [draw() for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:
        b = [draw() for _ in range(rng.randint(1, 5))]
    else:
        # rescaled copies of a plus vectors above a's supports
        b = [tuple(c and rng.randint(1, 3) for c in v) for v in a]
        b += [tuple(c or draw()[0] for c in rng.choice(a))
              for _ in range(rng.randint(0, 3))]
    return VectorSet(n, a), VectorSet(n, b)


def _frozenset_similar(a, b):
    sa = {frozenset(i for i, c in enumerate(v) if c) for v in a.vectors}
    sb = {frozenset(i for i, c in enumerate(v) if c) for v in b.vectors}
    return all(any(t <= s for t in sa) for s in sb) and all(
        any(t <= s for t in sb) for s in sa
    )


def test_similarity_path_matches_truth_tables_and_frozenset_reference():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(200):
        a, b = _vector_set_pair(rng, rng.randint(1, 8))
        by_table = boolean_function_of(b) == boolean_function_of(a)
        assert boolean_versions_agree(b, a) == similar(a, b) == by_table
        outcomes.add(by_table)
    assert outcomes == {True, False}
    outcomes = set()
    for _ in range(150):
        a, b = _vector_set_pair(rng, rng.randint(21, 30))
        expected = _frozenset_similar(a, b)
        assert similar(a, b) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_arithmetic_witness_check():
    c = Circuit(ARITHMETIC, 1, [("v1", Var(1)), ("g", Mul("v1", "v1"))], "g")
    fam = SetFamily(1, [(1,)])
    assert arithmetic_witness_check(c, fam, 2)
    assert not arithmetic_witness_check(c, fam, 1)
    ident = Circuit(ARITHMETIC, 2, [("v1", Var(1)), ("v2", Var(2)),
                                    ("g", Add("v1", "v2"))], "g")
    fam2 = SetFamily(2, [(1,), (2,)])
    assert arithmetic_witness_check(ident, fam2, 1)
    # x1 + x2 against {{1}}: the member has its copy x1 of height 1, but
    # the monomial x2 contains no member, so only the cover test fails
    assert not arithmetic_witness_check(ident, SetFamily(2, [(1,)]), 1)
    with pytest.raises(UsageError):
        arithmetic_witness_check(ident, SetFamily(2, [(1,), (1, 2)]), 1)


def test_certify_strips_constants_internally(rng):
    for _ in range(20):
        c, b = random_tropical_circuit(rng)
        if c.semiring != MAXPLUS:
            continue
        cmax = tuple(max(v[i] for v in b.vectors) for i in range(c.n))
        if all(x == 0 for x in cmax):
            continue
        a = VectorSet(c.n, [cmax])
        res = exact_factor(c, a, "max")
        if res.status != "rational":
            continue
        stripped = strip_constants(c)
        assert certify_max(stripped, a, res.value).verdict
        assert certify_max(c, a, res.value).verdict


def _random_problem_set(rng, b, sense):
    """A random feasible set near the produced set b, or None if empty.

    Half the draws are 0-1 antichains (the minimal ones among supports
    of b and random supports); the rest shift vectors of b up (max),
    sometimes on coordinates b never uses, or down inside their support
    (min), and drop some.
    """
    n = b.n
    if rng.random() < 0.5:
        pool = [m for m in b.supports() if m and rng.random() < 0.7]
        pool += [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 2))]
        mins = {m for m in pool if not any(o != m and o & m == o for o in pool)}
        vecs = [tuple((m >> i) & 1 for i in range(n)) for m in mins]
    else:
        vecs = []
        for v in b:
            if rng.random() < 0.2:
                continue  # dropped: validity may fail
            step = [rng.randint(0, 2) if rng.random() < 0.4 else 0 for _ in v]
            if sense == "max":
                vecs.append(tuple(x + s for x, s in zip(v, step)))
            else:  # inside supp(v), so v stays admissible for the new vector
                vecs.append(tuple(max(x - s, 1) if x else 0 for x, s in zip(v, step)))
        vecs = [v for v in vecs if any(v)]
    return VectorSet(n, vecs) if vecs else None


def test_certify_verdict_matches_exact_factor_across_paths():
    """certify_* (feasibility LPs over every column) holds at r iff
    exact_factor (scale LPs over undominated columns) is rational and
    r >= its value.  A is nonnegative, so t*a lies below conv(B) for
    every t <= t*, and r*a lies above it for every r >= r*; the two
    paths share no LP, so each checks the other at every size."""
    rng = random.Random(1313)
    eps = Fraction(1, 997)
    seen = set()
    for _ in range(300):
        circuit, _ = random_tropical_circuit(rng, max_n=5, max_gates=8, max_produced=30)
        sense = "max" if circuit.semiring == MAXPLUS else "min"
        try:
            core = strip_constants(circuit)
        except DegenerateCircuit:
            continue
        a = _random_problem_set(rng, produced_set(core), sense)
        if a is None:
            continue
        result = exact_factor(circuit, a, sense)
        if result.status == "rational":
            rs = [result.value - eps, result.value, result.value + eps]
            if result.value > 1:
                seen.add((sense, "above 1"))
        else:
            rs = [Fraction(1), Fraction(10**6)]
        check = certify_max if sense == "max" else certify_min
        for r in rs:
            if r >= 1:
                expected = result.status == "rational" and r >= result.value
                assert check(circuit, a, r).verdict == expected, (circuit, a, r)
        seen.add((sense, result.status, is_zero_one_antichain(a)))
    assert {(s, "above 1") for s in ("max", "min")} <= seen
    for s in ("max", "min"):
        for status in ("rational", "invalid", "infinite"):
            assert any(k[:2] == (s, status) for k in seen), (s, status, seen)
    assert {("min", "rational", True), ("min", "rational", False)} <= seen
