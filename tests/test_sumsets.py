"""Residues, decompositions, rectangle audits, bound calculators."""

import random
from fractions import Fraction

import pytest

from conftest import norm_axioms_hold
from troplab.builders import bellman_ford_circuit, design_approximator, selection_circuit
from troplab.circuits import (
    MINKOWSKI,
    MINPLUS,
    Add,
    Circuit,
    Const,
    Mul,
    Var,
    VectorSet,
    produced_node_sets,
    produced_set,
)
from troplab.errors import UsageError
from troplab.generators import DesignSpec, graham_sloane_matroid
from troplab.families import SetFamily
from troplab.sumsets import (
    NormMeasure,
    Rectangle,
    _balance_thresholds,
    _balanced,
    audit_circuit_rectangles,
    counting_bound,
    decompose,
    design_bound,
    matching_bound,
    rectangle_below_family,
    residues,
)
from troplab.tools import random_minkowski_circuit

F = Fraction


def mul_chain(n):
    nodes = [(f"v{i}", Var(i)) for i in range(1, n + 1)]
    prev = "v1"
    for i in range(2, n + 1):
        nodes.append((f"g{i}", Mul(prev, f"v{i}")))
        prev = f"g{i}"
    return Circuit(MINKOWSKI, n, nodes, prev)


def test_residue_examples():
    c = Circuit(MINKOWSKI, 2, [("v1", Var(1)), ("v2", Var(2)), ("k", Const(F(0))),
                               ("g", Mul("v1", "v2")), ("out", Add("g", "k"))], "out")
    by_id = {gs.node_id: gs for gs in residues(c)}
    b = produced_set(c)
    # output: residue is exactly the zero vector
    assert by_id["out"].residue.sorted_vectors() == [(0, 0)]
    # variable input: residue = {b - e_i : b in B, b_i >= 1}
    assert by_id["v1"].residue.sorted_vectors() == [(0, 1)]
    # constant input: produced {0}, residue = B
    assert by_id["k"].produced.sorted_vectors() == [(0, 0)]
    assert by_id["k"].residue == b


def test_residue_containment_property(rng):
    for _ in range(30):
        c = random_minkowski_circuit(rng)
        b = produced_set(c).vectors
        for gs in residues(c):
            for x in gs.produced:
                for y in gs.residue:
                    assert tuple(xi + yi for xi, yi in zip(x, y)) in b


def _reference_residues(circuit):
    """(node id, pr(v), res(v)) per node by the plain all-pairs tuple loop."""
    per_node = produced_node_sets(circuit)
    b_set = per_node[circuit.output]
    out = []
    for nid, _ in circuit.nodes:
        x_set = per_node[nid]
        candidates = set()
        for b in b_set:
            for x in x_set:
                if all(bi >= xi for bi, xi in zip(b, x)):
                    candidates.add(tuple(bi - xi for bi, xi in zip(b, x)))
        keep = frozenset(
            y for y in candidates
            if all(tuple(xi + yi for xi, yi in zip(x, y)) in b_set for x in x_set)
        )
        out.append((nid, x_set, keep))
    return out


def test_residues_match_all_pairs_reference():
    """The mask-filtered residues equal the all-pairs loop node by node:
    soundness and completeness, on random circuits with entries above 1
    and on the builders' circuits."""
    rng = random.Random(5150)
    corpus = [random_minkowski_circuit(rng) for _ in range(40)]
    corpus += [
        selection_circuit(8, 3),
        design_approximator(DesignSpec(4, 2)),
        bellman_ford_circuit(5, 1, 2, MINPLUS),
    ]
    nonempty = above_one = 0
    for circuit in corpus:
        got = [(gs.node_id, gs.produced.vectors, gs.residue.vectors)
               for gs in residues(circuit)]
        assert got == _reference_residues(circuit)
        nonempty += sum(1 for _, _, res in got if res)
        above_one += sum(1 for _, _, res in got for y in res if max(y) > 1)
    assert nonempty > 100 and above_one > 50


def test_residue_sets_pass_the_vector_set_checks():
    """residues wraps its sets without re-checking them; a checked
    VectorSet of the same vectors is equal, and every entry is an int."""
    rng = random.Random(5151)
    corpus = [random_minkowski_circuit(rng) for _ in range(20)]
    corpus += [selection_circuit(6, 3), bellman_ford_circuit(5, 1, 2, MINPLUS)]
    for circuit in corpus:
        for gs in residues(circuit):
            for vs in (gs.produced, gs.residue):
                assert type(vs.vectors) is frozenset
                assert VectorSet(circuit.n, vs.vectors) == vs
                assert all(type(c) is int for v in vs for c in v)


def test_decompose_chain_window():
    c = mul_chain(4)
    mu = NormMeasure("ones", (1, 1, 1, 1))
    d = decompose(c, mu, (1, 1, 1, 1), F(1, 2))
    assert 1 < d.norm_x <= 2
    assert tuple(a + b for a, b in zip(d.x, d.y)) == (1, 1, 1, 1)


def test_decompose_preconditions():
    c = mul_chain(3)
    mu = NormMeasure("ones", (1, 1, 1))
    with pytest.raises(UsageError):
        decompose(c, mu, (1, 0, 0), F(1, 2))  # norm 1 is not > 1
    with pytest.raises(UsageError):
        decompose(c, mu, (1, 1, 1), F(1, 5))  # theta below 1/norm
    with pytest.raises(UsageError):
        decompose(c, mu, (2, 0, 0), F(1, 2))  # not produced
    small = NormMeasure("dot", (1, F(1, 2), 0))
    with pytest.raises(UsageError):
        NormMeasure("bad", (2, 0, 0))  # axiom violation on a unit vector
    assert small((1, 1, 1)) == F(3, 2)


def test_norm_axioms_spot_check():
    mu = NormMeasure("dot", (1, 0, F(1, 3)))
    assert norm_axioms_hold(mu, [(1, 0, 0), (0, 2, 1), (3, 1, 2)])


def test_decomposition_window_property(rng):
    """Every produced vector of norm > 1 splits inside the theta window."""
    circuits = 0
    while circuits < 25:
        c = random_minkowski_circuit(rng)
        b = produced_set(c)
        circuits += 1
        for _ in range(3):
            weights = tuple(rng.randint(0, 1) for _ in range(c.n))
            if not any(weights):
                continue
            mu = NormMeasure("rand", weights)
            for vec in b:
                nb = mu(vec)
                if nb <= 1:
                    continue
                lo = F(1) / nb
                for step in range(3):
                    theta = lo + (1 - lo) * F(step, 3) + (1 - lo) / 6
                    d = decompose(c, mu, vec, theta)
                    assert theta * nb / 2 < d.norm_x <= theta * nb


def test_decompose_at_output_is_whole_vector():
    # theta close to 1: the window still demands a proper split
    c = mul_chain(2)
    mu = NormMeasure("ones", (1, 1))
    d = decompose(c, mu, (1, 1), F(1, 2))
    assert d.norm_x == 1 and sorted((sum(d.x), sum(d.y))) == [1, 1]


# ---------------------------------------------------------------------------
# Rectangles


def balanced_in_rectangle(f_mask, rect, r, beta):
    """Does the set appear (r, beta)-balanced in the rectangle?

    Needs one pair (A, B) with |F n (A u B)| >= |F|/r,
    |F n A| > (beta/2r)|F| (strict) and |F n B| >= ((1-beta)/r)|F|;
    this is the audit's own test of one set: its int thresholds, then
    its pair scan.
    """
    return _balanced(f_mask, rect, *_balance_thresholds(f_mask.bit_count(), F(r), F(beta)))


def test_balanced_in_rectangle_split_member():
    rect = Rectangle(4, (0b0011,), (0b1100,))
    f_mask = 0b1111
    assert balanced_in_rectangle(f_mask, rect, F(1), F(2, 3))


def test_balanced_strictness_boundary():
    # |F n A| must be strictly above beta|F|/(2r): equality fails
    rect = Rectangle(4, (0b0001,), (0b1110,))
    f_mask = 0b1111
    r, beta = F(1), F(1, 2)
    # |F n A| = 1 == beta*|F|/(2r) = 1 -> strict inequality fails
    assert not balanced_in_rectangle(f_mask, rect, r, beta)
    # dropping beta to 1/3 moves the threshold to 2/3 < 1 and it holds
    assert balanced_in_rectangle(f_mask, rect, r, F(1, 3))
    # the union and B-side thresholds are not strict: equality passes
    # |F n (A u B)| = 2 == |F|/r = 2 (|F n A| = 1 > 3/4, |F n B| = 1 > 1/2)
    union_tight = Rectangle(4, (0b0001,), (0b0010,))
    assert balanced_in_rectangle(f_mask, union_tight, F(2), F(3, 4))
    # |F n B| = 1 == ((1-beta)/r)|F| = 1 (|F n A| = 2 > 1/2, |F n (A u B)| = 3 > 2)
    b_tight = Rectangle(4, (0b0011,), (0b0100,))
    assert balanced_in_rectangle(f_mask, b_tight, F(2), F(1, 2))


def _reference_balanced(f_mask, rect, r, beta):
    """balanced_in_rectangle with Fraction thresholds, tested per pair."""
    size = bin(f_mask).count("1")
    return any(
        bin(f_mask & a).count("1") > beta * size / (2 * r)
        and bin(f_mask & (a | b)).count("1") >= size / r
        and bin(f_mask & b).count("1") >= (1 - beta) * size / r
        for a in rect.a_side for b in rect.b_side
    )


def test_balanced_int_thresholds_match_fraction_reference():
    rng = random.Random(3131)
    ratios = [F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), F(8, 3)]
    betas = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6)]
    integral = {"a": 0, "union": 0}
    answers = set()
    for _ in range(3000):
        n = rng.randint(1, 10)
        f_mask = rng.getrandbits(n)
        rect = Rectangle(n, tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 4))),
                         tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 4))))
        r, beta = rng.choice(ratios), rng.choice(betas)
        size = f_mask.bit_count()
        integral["a"] += (beta * size / (2 * r)).denominator == 1
        integral["union"] += (size / r).denominator == 1
        expected = _reference_balanced(f_mask, rect, r, beta)
        assert balanced_in_rectangle(f_mask, rect, r, beta) == expected
        answers.add(expected)
    assert answers == {True, False}
    assert min(integral.values()) > 300


@pytest.mark.parametrize("beta, counts", [
    (F(2, 3), {"s2": 13, "s4": 21, "s5": 30, "s8": 26, "s9": 44, "s13": 26,
               "s14": 52, "s18": 21, "s19": 47, "s22": 13, "s23": 30}),
    (F(1, 2), {**{f"x{i}": 30 for i in range(1, 9)},
               "s1": 47, "s3": 52, "s7": 44, "s12": 30, "s17": 13}),
])
def test_audit_selection_8_3_balanced_counts(beta, counts):
    rep = audit_circuit_rectangles(
        selection_circuit(8, 3), graham_sloane_matroid(8, 4), F(4, 3), beta)
    assert len(rep.rectangles) == 35
    assert {a.node_id: a.balanced_count for a in rep.rectangles
            if a.balanced_count} == counts
    assert rep.h_max == 52
    assert rep.uncovered == []
    assert rep.implied_bound == F(15, 13)


def test_balanced_empty_rectangle():
    rect = Rectangle(4, (), ())
    assert not balanced_in_rectangle(0b1111, rect, F(1), F(2, 3))


def test_rectangle_below_family_negative_control():
    fam = SetFamily(4, [(1, 2), (3, 4)])
    good = Rectangle(4, (0b0001,), (0b0010,))
    assert rectangle_below_family(good, fam)
    corrupt = Rectangle(4, (0b0001,), (0b0100,))  # {1,3} fits no member
    assert not rectangle_below_family(corrupt, fam)
    assert corrupt.is_cross_disjoint()


@pytest.mark.parametrize("n", [6, 8])
def test_audit_selection_against_gs_matroid(n):
    m = n // 2
    k = m - 1
    fam = graham_sloane_matroid(n, m)
    sel = selection_circuit(n, k)
    r = F(m, k)
    rep = audit_circuit_rectangles(sel, fam, r, F(2, 3))
    assert rep.all_properties_hold
    assert rep.h_max >= 1
    assert rep.implied_bound == F(len(fam), rep.h_max)


def test_audit_requires_certification():
    fam = SetFamily(4, [(1, 2)])
    sel = selection_circuit(4, 3)  # not an approximator for this family
    with pytest.raises(UsageError):
        audit_circuit_rectangles(sel, fam, F(2), F(2, 3))


# ---------------------------------------------------------------------------
# Bound calculators


def test_design_bound_example():
    b = design_bound(5, 2, F(1, 2), enumerate_degree=True)
    assert b.l == F(1, 2)
    assert b.bound_ceil == 5
    assert b.bound_floor == 1
    assert b.degree_ceil == 5
    assert b.enumerated_degree == 5
    assert b.factor == F(5, 4)
    with pytest.raises(UsageError):
        design_bound(5, 2, F(1, 10))


def test_matching_bound_example():
    b = matching_bound(16, 6, 7)
    assert b.d == 1
    assert b.bound == F(32, 120)


def test_counting_bound_example():
    b = counting_bound(20, F(2**20, 20**3))
    assert b.t == 131
    assert b.matroid_count_log2 == F(184756, 20)
    assert b.strictly_fewer_circuits
    # and the comparison really is tight the other way for tiny matroid counts
    assert not counting_bound(4, 1000).strictly_fewer_circuits
