"""Circuit builders against oracles and their stated size bounds."""

from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    boolean_function_of,
    shortest_path_oracle,
    simple_path_vectors,
    spanning_tree_vectors,
)
from troplab.builders import (
    bellman_ford_circuit,
    design_approximator,
    edge_count,
    edge_var,
    floyd_warshall_circuit,
    selection_circuit,
    sidon_approximator,
    spanning_tree_boolean,
)
from troplab.circuits import BOOLEAN, MINPLUS, evaluate, produced_set, syntactic_degree
from troplab.errors import UsageError
from troplab.generators import DesignSpec, polynomial_design, sidon_cubic


def test_edge_numbering_lexicographic():
    assert edge_var(4, 1, 2) == 1
    assert edge_var(4, 1, 4) == 3
    assert edge_var(4, 2, 3) == 4
    assert edge_var(4, 3, 4) == 6
    assert edge_var(4, 4, 3) == 6
    with pytest.raises(UsageError):
        edge_var(4, 2, 2)


def test_selection_edges():
    n = 5
    sel1 = selection_circuit(n, 1)
    seln = selection_circuit(n, n)
    x = [3, 9, 4, 1, 7]
    assert evaluate(sel1, x) == 9
    assert evaluate(seln, x) == sum(x)
    assert evaluate(selection_circuit(4, 2), [5, 1, 7, 2]) == 12


def test_selection_oracle_and_size(rng):
    for n in range(1, 9):
        for k in range(1, n + 1):
            c = selection_circuit(n, k)
            assert c.gate_count <= 2 * k * n
            for _ in range(40):
                x = [rng.randint(0, 60) for _ in range(n)]
                assert evaluate(c, x) == sum(sorted(x, reverse=True)[:k])


def test_selection_guards():
    with pytest.raises(UsageError):
        selection_circuit(3, 0)
    with pytest.raises(UsageError):
        selection_circuit(3, 4)


@pytest.mark.parametrize("m,d", [(2, 1), (3, 1), (3, 3), (5, 2)])
def test_design_approximator_size(m, d):
    c = design_approximator(DesignSpec(m, d))
    assert c.gate_count <= 3 * m * m
    assert c.n == m * m


def test_design_approximator_row_semantics(rng):
    spec = DesignSpec(3, 2)
    c = design_approximator(spec)
    for _ in range(60):
        x = [rng.randint(0, 40) for _ in range(9)]
        rows = [x[0:3], x[3:6], x[6:9]]
        maxima = sorted((max(r) for r in rows), reverse=True)
        assert evaluate(c, x) == maxima[0] + maxima[1]


def test_design_approximator_exact_on_single_set():
    spec = DesignSpec(3, 3)
    fam = polynomial_design(spec)
    member = fam.members()[4]
    x = [0] * 9
    for e in member:
        x[e - 1] = 1
    assert evaluate(design_approximator(spec), x) == 3


def test_sidon_approximator_size_and_coverage():
    for m in (3, 5):
        c = sidon_approximator(m)
        assert c.n == 4 * m and c.gate_count <= 4 * m
        for v in sidon_cubic(m):
            value = evaluate(c, list(v))
            assert value >= m  # one of the two block sums is fully captured
            assert value <= 2 * m
    with pytest.raises(UsageError):
        sidon_approximator(4)


def test_sidon_approximator_value(rng):
    m = 3
    c = sidon_approximator(m)
    for _ in range(80):
        x = [rng.randint(0, 20) for _ in range(4 * m)]
        g = sum(max(x[i], x[2 * m + i]) for i in range(m))
        h = sum(max(x[m + i], x[3 * m + i]) for i in range(m))
        assert evaluate(c, x) == max(g, h)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bellman_ford_boolean_is_stconn(n):
    s, t = 1, 2
    c = bellman_ford_circuit(n, s, t, BOOLEAN)
    table = boolean_function_of(produced_set(c))
    oracle = boolean_function_of(simple_path_vectors(n, s, t))
    assert table == oracle
    # and gate-level evaluation agrees on every edge subset
    for bits in product([0, 1], repeat=edge_count(n)):
        mask = sum(b << i for i, b in enumerate(bits))
        assert evaluate(c, list(bits)) == oracle[mask]


def test_bellman_ford_minplus_unit_weights():
    c = bellman_ford_circuit(4, 1, 2, MINPLUS)
    assert evaluate(c, [1] * 6) == 1


def test_bellman_ford_guards():
    with pytest.raises(UsageError):
        bellman_ford_circuit(3, 1, 1)
    with pytest.raises(UsageError):
        bellman_ford_circuit(3, 1, 2, "maxplus")


def test_floyd_warshall_matches_oracle(rng):
    n, s, t = 4, 1, 3
    c = floyd_warshall_circuit(n, s, t)
    assert c.gate_count <= n**3
    for _ in range(100):
        x = [Fraction(rng.randint(0, 24), rng.randint(1, 3)) for _ in range(6)]
        assert evaluate(c, x) == shortest_path_oracle(n, s, t, x)
    assert evaluate(c, [1] * 6) == 1


def test_floyd_warshall_agrees_with_bellman_ford(rng):
    for n in (3, 4, 5):
        fw = floyd_warshall_circuit(n, 1, n)
        bf = bellman_ford_circuit(n, 1, n, MINPLUS)
        for _ in range(40):
            x = [rng.randint(0, 15) for _ in range(edge_count(n))]
            assert evaluate(fw, x) == evaluate(bf, x)


def test_floyd_warshall_produced_set_lies_above_paths():
    n, s, t = 4, 1, 4
    walks = produced_set(floyd_warshall_circuit(n, s, t))
    paths = simple_path_vectors(n, s, t)
    for w in walks:
        assert any(all(wi >= pi for wi, pi in zip(w, p)) for p in paths)
    for p in paths:
        assert p in walks


@pytest.mark.parametrize("n", [3, 4])
def test_spanning_tree_accepts_connected_subgraphs(n):
    c = spanning_tree_boolean(n)
    trees = spanning_tree_vectors(n)
    tree_table = boolean_function_of(trees)
    for bits in product([0, 1], repeat=edge_count(n)):
        mask = sum(b << i for i, b in enumerate(bits))
        assert evaluate(c, list(bits)) == tree_table[mask]
    assert evaluate(c, [0] * edge_count(n)) == 0


def test_spanning_tree_syntactic_degree():
    for n in (3, 4, 5):
        assert syntactic_degree(spanning_tree_boolean(n)) <= (n - 1) ** 2
