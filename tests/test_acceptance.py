"""Acceptance suite: twelve exact end-to-end criteria.

Each test prints one `criterion NN: PASS (elapsed)` line (run pytest
with -s to see them inline) and asserts the stated time budget.
Criteria 2-4, 6-7 and 11 run under the Fourier-Motzkin cross-check of
tests/fm_oracle.py (a disagreement raises InternalCheck and fails the
originating criterion).  Criterion 12 runs its own certifications under
the cross-check, so it passes alone too, shows that a flipped verdict is
caught, and prints the number of replays made so far in the run.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    minterm_vectors,
    norm_axioms_hold,
    random_monotone_boolean_circuit,
    random_tropical_circuit,
    simple_path_vectors,
    spanning_tree_vectors,
)
from fm_oracle import fm_cross_check
from troplab import certify
from troplab.builders import (
    bellman_ford_circuit,
    design_approximator,
    floyd_warshall_circuit,
    selection_circuit,
    sidon_approximator,
    spanning_tree_boolean,
)
from troplab.certify import (
    DominanceQuery,
    boolean_versions_agree,
    boolean_bound_check,
    bounded_copy_checks,
    certify_max,
    certify_min,
    exact_factor,
    semantic_degree,
)
from troplab.circuits import (
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
    syntactic_degree,
)
from troplab.errors import InternalCheck
from troplab.families import (
    SetFamily,
    boolean_function_of,
    is_d_disjoint,
    is_k_dense,
    is_sidon_vectors,
    matroid_check,
    uniform_size,
)
from troplab.generators import (
    DesignSpec,
    HypergraphSpec,
    design_degree,
    graham_sloane_matroid,
    hypergraph_matchings,
    polynomial_design,
    sidon_cubic,
)
from troplab.gf import Field, power_map_is_bijective
from troplab.greedy import greedy_run, matroid_failure_witness
from troplab.sumsets import NormMeasure, audit_circuit_rectangles, decompose, design_bound
from troplab.tools import random_minkowski_circuit

F = Fraction

_fm_totals = {"checked": 0}


@contextmanager
def _criterion(num: int, budget_s: float, label: str):
    start = time.time()
    yield
    elapsed = time.time() - start
    print(f"criterion {num:02d} ({label}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


@contextmanager
def _oracle_checked():
    with fm_cross_check() as stats:
        yield stats
    _fm_totals["checked"] += stats["checked"]


def test_criterion_01_selection():
    rng = random.Random(101)
    with _criterion(1, 5.0, "selection vs sort oracle"):
        for n in range(1, 11):
            for k in range(1, n + 1):
                c = selection_circuit(n, k)
                assert c.gate_count <= 2 * k * n
                for _ in range(1000):
                    den = rng.choice((1, 1, 2, 3, 4))
                    nums = [rng.randint(0, 400) for _ in range(n)]
                    x = [F(num, den) for num in nums]
                    assert evaluate(c, x) == F(sum(sorted(nums, reverse=True)[:k]), den)


HIERARCHY_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]


def test_criterion_02_hierarchy_upper_bound():
    with _criterion(2, 120.0, "design approximators at m/d"), _oracle_checked():
        for m, d in HIERARCHY_PAIRS:
            spec = DesignSpec(m, d)
            a = polynomial_design(spec).characteristic_vectors()
            c = design_approximator(spec)
            assert c.gate_count <= 3 * m * m
            target = F(m, d)
            assert certify_max(c, a, target).verdict
            result = exact_factor(c, a, "max")
            assert result.status == "rational" and result.value <= target


def test_criterion_03_factor_refutation():
    with _criterion(3, 60.0, "strict factor sensitivity at (5,2)"), _oracle_checked():
        spec = DesignSpec(5, 2)
        a = polynomial_design(spec).characteristic_vectors()
        c = design_approximator(spec)
        assert certify_max(c, a, F(5, 2)).verdict
        refuted = certify_max(c, a, F(2))
        assert not refuted.verdict
        assert refuted.failures()
        bound = design_bound(5, 2, F(1, 2), enumerate_degree=True)
        assert bound.l == F(1, 2)
        assert bound.bound_ceil == 5
        assert bound.degree_ceil == 5
        assert bound.enumerated_degree == 5


def test_criterion_04_sidon_suite():
    with _criterion(4, 60.0, "cubic Sidon families"), _oracle_checked():
        for m in (3, 5):
            a = sidon_cubic(m)
            assert len(a) == 2**m
            assert {sum(v) for v in a} == {2 * m}
            assert is_sidon_vectors(a)
            c = sidon_approximator(m)
            assert c.gate_count <= 4 * m
            result = exact_factor(c, a, "max")
            assert result.status == "rational" and result.value <= 2
        for m in range(1, 10):
            assert power_map_is_bijective(Field.of(2, m), 3) == (m % 2 == 1)


def test_criterion_05_design_combinatorics():
    with _criterion(5, 60.0, "polynomial design structure"):
        for m in (2, 3, 4, 5):
            for d in range(1, m + 1):
                fam = polynomial_design(DesignSpec(m, d))
                assert len(fam) == m**d
                assert uniform_size(fam) == m
                assert is_d_disjoint(fam, d)
                for l in range(d + 1):
                    assert design_degree(fam, l) == m ** (d - l)


def _min_corpus():
    yield bellman_ford_circuit(4, 1, 2, MINPLUS), simple_path_vectors(4, 1, 2)
    yield bellman_ford_circuit(5, 1, 2, MINPLUS), simple_path_vectors(5, 1, 2)
    yield floyd_warshall_circuit(4, 1, 3), simple_path_vectors(4, 1, 3)


def test_criterion_06_boolean_bound_consistency():
    with _criterion(6, 30.0, "boolean version of certified circuits"), _oracle_checked():
        for c, a in _min_corpus():
            assert a.n <= 12
            result = exact_factor(c, a, "min")
            assert result.status == "rational"
            assert certify_min(c, a, result.value).verdict
            assert boolean_bound_check(c, a)
            corrupted = VectorSet(a.n, list(a.sorted_vectors())[1:])
            assert not boolean_versions_agree(
                produced_set(strip_constants(c)), corrupted
            )


def _random_problem_for(circuit, b, rng):
    vs = b.sorted_vectors()
    n = circuit.n
    if circuit.semiring == MAXPLUS:
        top = tuple(max(v[i] for v in vs) for i in range(n))
        vectors = [top]
        support = [i for i, x in enumerate(top) if x]
        if rng.random() < 0.5 and support:
            bump = list(top)
            bump[rng.choice(support)] += 1
            vectors.append(tuple(bump))
        return VectorSet(n, vectors), "max"
    low = tuple(min(v[i] for v in vs) for i in range(n))
    if not any(low):
        return None, "min"
    vectors = [low]
    if rng.random() < 0.5:
        bump = list(low)
        bump[rng.choice([i for i, x in enumerate(low) if x])] += 1
        vectors.append(tuple(bump))
    return VectorSet(n, vectors), "min"


def test_criterion_07_constant_elimination():
    rng = random.Random(707)
    with _criterion(7, 120.0, "stripping preserves certificates"), _oracle_checked():
        accepted = 0
        while accepted < 200:
            c, b = random_tropical_circuit(rng, max_gates=12, max_produced=50)
            if c.is_constant_free:
                continue
            a, sense = _random_problem_for(c, b, rng)
            if a is None:
                continue
            result = exact_factor(c, a, sense)
            if result.status != "rational":
                continue
            stripped = strip_constants(c)
            assert stripped.gate_count <= c.gate_count
            certifier = certify_max if sense == "max" else certify_min
            assert certifier(stripped, a, result.value).verdict
            again = exact_factor(stripped, a, sense)
            assert again.status == "rational" and again.value == result.value
            accepted += 1


def test_criterion_08_decomposition_windows():
    rng = random.Random(808)
    with _criterion(8, 120.0, "windowed sumset splits"):
        for _ in range(100):
            c = random_minkowski_circuit(rng, max_gates=15, max_produced=40)
            b = produced_set(c)
            norms = []
            while len(norms) < 5:
                w = tuple(rng.randint(0, 1) for _ in range(c.n))
                if any(w):
                    norms.append(NormMeasure("rand", w))
            for mu in norms:
                assert norm_axioms_hold(mu, list(b)[:6])
                for vec in b:
                    nb = mu(vec)
                    if nb <= 1:
                        continue
                    lo = F(1) / nb
                    for j in range(5):
                        theta = lo + (1 - lo) * F(2 * j + 1, 10)
                        split = decompose(c, mu, vec, theta)
                        assert theta * nb / 2 < split.norm_x <= theta * nb


def test_criterion_09_rectangle_audit():
    with _criterion(9, 120.0, "rectangle structure of selection circuits"):
        for n in (6, 8):
            m = n // 2
            k = m - 1
            fam = graham_sloane_matroid(n, m)
            assert is_k_dense(fam, k)  # the denseness claim, exhaustively
            sel = selection_circuit(n, k)
            report = audit_circuit_rectangles(sel, fam, F(m, k), F(2, 3))
            assert all(rect.below_family for rect in report.rectangles)
            assert all(rect.cross_disjoint for rect in report.rectangles)
            assert not report.uncovered
            assert report.h_max >= 1
            assert report.implied_bound == F(len(fam), report.h_max)


def _greedy_corpus():
    star3 = SetFamily(4, [(1,), (2, 3, 4)])
    star5 = SetFamily(6, [(1,), (2, 3, 4, 5, 6)])
    yield "star3", star3, 3
    yield "star5", star5, 5
    yield "design(3,2)", polynomial_design(DesignSpec(3, 2)), 3
    yield "F_2,2", hypergraph_matchings(HypergraphSpec(2, 2)), 2
    yield "F_3,2", hypergraph_matchings(HypergraphSpec(3, 2)), 3
    yield "F_3,3", hypergraph_matchings(HypergraphSpec(3, 3)), 3
    yield "GS(6,3)", graham_sloane_matroid(6, 3), 3
    yield "GS(8,4)", graham_sloane_matroid(8, 4), 4


def test_criterion_10_greedy():
    rng = random.Random(1010)
    with _criterion(10, 180.0, "greedy factors"):
        # (a) the m-bound on every corpus family, tightness on the star
        for name, fam, m in _greedy_corpus():
            assert uniform_size(fam) == m or name.startswith("star")
            for _ in range(10_000):
                x = [rng.randint(0, 100) for _ in range(fam.n)]
                assert greedy_run(fam, x, "max").ratio <= m
        star5 = SetFamily(6, [(1,), (2, 3, 4, 5, 6)])
        tight = greedy_run(star5, [F(20, 19), 1, 1, 1, 1, 1], "max")
        assert tight.ratio >= F(9, 10) * 5

        # (b) Rado-Edmonds both ways
        for n in (4, 5, 6, 7, 8):
            matroid = graham_sloane_matroid(n, n // 2)
            assert matroid_check(matroid).is_matroid
            for _ in range(10_000):
                x = [rng.randint(0, 50) for _ in range(n)]
                assert greedy_run(matroid, x, "max").ratio == 1
                assert greedy_run(matroid, x, "min").ratio == 1
        controls = [
            SetFamily(4, [(1, 2), (3, 4)]),
            polynomial_design(DesignSpec(3, 2)),
            hypergraph_matchings(HypergraphSpec(2, 2)),
            hypergraph_matchings(HypergraphSpec(3, 2)),
            hypergraph_matchings(HypergraphSpec(3, 3)),
        ]
        for fam in controls:
            assert not matroid_check(fam).is_matroid
            witness = matroid_failure_witness(fam)
            assert witness is not None and witness[1].ratio > 1

        # (c) hypergraph matchings: family sizes and the factor-k behavior
        from math import factorial

        for m in (2, 3, 4):
            for k in (2, 3):
                fam = hypergraph_matchings(HypergraphSpec(m, k))
                assert len(fam) == factorial(m) ** (k - 1)
                trials = 300 if fam.n > 30 else 1000
                for _ in range(trials):
                    x = [rng.randint(0, 100) for _ in range(fam.n)]
                    run = greedy_run(fam, x, "max")
                    assert run.ratio <= k
                    assert run.ratio <= m


def _merge_boolean(c1, c2, kind):
    nodes = []
    seen_vars = {}

    def emit(c, prefix):
        mapping = {}
        for nid, node in c.nodes:
            if isinstance(node, Var):
                if node.index not in seen_vars:
                    vid = f"x{node.index}"
                    nodes.append((vid, node))
                    seen_vars[node.index] = vid
                mapping[nid] = seen_vars[node.index]
            else:
                new_id = prefix + nid
                mapping[nid] = new_id
                nodes.append(
                    (new_id, type(node)(mapping[node.left], mapping[node.right]))
                )
        return mapping[c.output]

    out1 = emit(c1, "a_")
    out2 = emit(c2, "b_")
    nodes.append(("top", kind(out1, out2)))
    return Circuit(BOOLEAN, c1.n, nodes, "top")


def _degree_with_probes(circuit, minterms):
    degree = semantic_degree(circuit, minterms)
    gens = tuple(produced_set(circuit).sorted_vectors())
    scaled = lambda r, a: tuple(F(x) * r for x in a)
    feasible_at = lambda r, a: certify.lp_feasible(
        DominanceQuery(scaled(r, a), gens, "above", tight=True)
    ).feasible
    assert all(feasible_at(degree, a) for a in minterms)
    probe = degree - F(1, 1000)
    assert any(not feasible_at(probe, a) for a in minterms)
    return degree


def test_criterion_11_semantic_degree():
    rng = random.Random(1111)
    with _criterion(11, 180.0, "semantic degrees"), _oracle_checked():
        for n in (4, 5):
            c = bellman_ford_circuit(n, 1, 2, BOOLEAN)
            assert _degree_with_probes(c, simple_path_vectors(n, 1, 2)) == 1
        for n in (3, 4):
            c = spanning_tree_boolean(n)
            deg = _degree_with_probes(c, spanning_tree_vectors(n))
            assert deg <= n - 1

        pairs = 0
        while pairs < 200:
            n = rng.randint(3, 5)
            c1 = random_monotone_boolean_circuit(rng, n=n, max_gates=6)
            c2 = random_monotone_boolean_circuit(rng, n=n, max_gates=6)
            both = {
                "1": c1,
                "2": c2,
                "or": _merge_boolean(c1, c2, Add),
                "and": _merge_boolean(c1, c2, Mul),
            }
            degrees = {}
            for name, c in both.items():
                b = produced_set(c)
                minterms = minterm_vectors(boolean_function_of(b))
                degrees[name] = semantic_degree(c, minterms)
                assert degrees[name] <= syntactic_degree(c)
                copies = bounded_copy_checks(minterms, b, degrees[name])
                # (1) degree 1 exactly when every minterm is produced
                produced_minterms = all(tuple(a) in b for a in minterms)
                assert (degrees[name] == 1) == produced_minterms
                # (2) a sufficient r from bounded copies dominates the degree
                heights = [h for _, h in copies.best_copy_heights if h is not None]
                if len(heights) == len(minterms):
                    assert degrees[name] <= max(heights)
                # (3) no copy may overshoot r|a| - |a| + r at r = degree
                assert not copies.necessary_violations
            assert degrees["or"] <= max(degrees["1"], degrees["2"])
            assert degrees["and"] <= degrees["1"] + degrees["2"]
            pairs += 1


def test_criterion_12_solver_cross_validation(monkeypatch):
    with _criterion(12, 60.0, "Fourier-Motzkin agreement"):
        # Every replayed verdict must agree with elimination; a
        # disagreement raises InternalCheck inside the block.
        with _oracle_checked() as stats:
            for c, a in _min_corpus():
                assert certify_min(c, a, 1).verdict
            for m in (2, 3):  # witnesses that mix several generators
                spec = DesignSpec(m, 1)
                a = polynomial_design(spec).characteristic_vectors()
                assert certify_max(design_approximator(spec), a, F(m)).verdict
            for n in (4, 5):
                c = bellman_ford_circuit(n, 1, 2, BOOLEAN)
                assert _degree_with_probes(c, simple_path_vectors(n, 1, 2)) == 1
            for n in (3, 4):
                c = spanning_tree_boolean(n)
                assert _degree_with_probes(c, spanning_tree_vectors(n)) <= n - 1
        assert stats["checked"] > 100

        # Negative control: a solver that flips its verdicts is caught.
        decide = certify.lp_feasible

        def flipped(query):
            cert = decide(query)
            return replace(cert, feasible=not cert.feasible)

        monkeypatch.setattr(certify, "lp_feasible", flipped)
        with pytest.raises(InternalCheck, match="disagrees"), fm_cross_check():
            certify.lp_feasible(DominanceQuery((1, 1), ((1, 0), (0, 1)), "below"))
        print(f"  cross-checked lp decisions: {_fm_totals['checked']}"
              f" ({stats['checked']} in this criterion)")
