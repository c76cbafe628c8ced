"""Certifier: dominance queries, factor certification, semantic degree."""

import random
from fractions import Fraction

import pytest

from conftest import simple_path_vectors
from fm_oracle import fm_cross_check
from troplab import certify, guards
from troplab.builders import bellman_ford_circuit, selection_circuit
from troplab.certify import (
    Certificate,
    DominanceQuery,
    GeneratorTable,
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
)
from troplab.errors import UsageError
from troplab.families import SetFamily, boolean_function_of, similar
from troplab.tools import random_tropical_circuit

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


@pytest.mark.parametrize("target, gens, direction, message", [
    ((1, 0), ((1, 0), (1, 0, 0)), "below", "generator arity mismatch"),
    ((1, 0, 0), ((1, 0),), "above", "generator arity mismatch"),
    ((1, 0, 0), GeneratorTable([(1, 0)]), "below", "generator arity mismatch"),
    ((1, 0), (), "below", "empty generator set"),
    ((1, 0), ((1, 0),), "sideways", "direction must be below/above"),
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
    through the module binding, on the call's two generator tables."""
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
    assert len({id(q.generators) for q in queries}) == 2


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
    assert res3.status == "invalid" or res3.status == "infinite"


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
    for _ in range(150):
        a, b = _vector_set_pair(rng, rng.randint(4, 8))
        by_table = boolean_function_of(b) == boolean_function_of(a)
        with guards.limits(table_variables=3):  # forces the similarity path
            assert boolean_versions_agree(b, a) == by_table
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
