"""Shared brute-force oracles and seeded corpora for the test suite.

The oracles are deliberately independent of the library code paths
they check: path sets come from permutation enumeration, optima from
direct scans, tropical values from the produced-set formula, norm
axioms from pairwise sums.  The random-circuit corpora sample with
troplab.tools' sampler, so a seed draws the same circuits as it did
when they lived there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from troplab import guards
from troplab.builders import edge_count, edge_var
from troplab.circuits import BOOLEAN, MAXPLUS, MINPLUS, VectorSet, produced_set
from troplab.rationals import format_rational
from troplab.tools import _bounded, _sample


def simple_path_vectors(n: int, s: int, t: int) -> VectorSet:
    """Edge vectors of all simple s-t paths in K_n, by enumeration."""
    others = [v for v in range(1, n + 1) if v not in (s, t)]
    vectors = []
    for r in range(len(others) + 1):
        for mids in permutations(others, r):
            walk = [s, *mids, t]
            vec = [0] * edge_count(n)
            for a, b in zip(walk, walk[1:]):
                vec[edge_var(n, a, b) - 1] += 1
            vectors.append(tuple(vec))
    return VectorSet(edge_count(n), vectors)


def spanning_tree_vectors(n: int) -> VectorSet:
    """Edge vectors of all spanning trees of K_n (brute force over subsets)."""
    m = edge_count(n)
    edges = list(combinations(range(1, n + 1), 2))
    vectors = []
    for subset in combinations(range(m), n - 1):
        parent = list(range(n + 1))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for ei in subset:
            a, b = edges[ei]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            vec = [0] * m
            for ei in subset:
                vec[ei] = 1
            vectors.append(tuple(vec))
    return VectorSet(m, vectors)


def minterm_vectors(table) -> VectorSet:
    """Minimal true points of a BooleanTable, as 0-1 vectors."""
    mins = []
    for m in range(1 << table.n):
        if table.value(m) and all(
            not table.value(m ^ (1 << i)) for i in range(table.n) if m >> i & 1
        ):
            mins.append(tuple((m >> i) & 1 for i in range(table.n)))
    return VectorSet(table.n, mins)


def serialize_weighting(x) -> str:
    """Text form of a Weighting, read back by families.parse_weighting."""
    lines = [f"weights vars={len(x)}"]
    lines.extend(format_rational(v) for v in x)
    return "\n".join(lines) + "\n"


def shortest_path_oracle(n: int, s: int, t: int, weights) -> Fraction:
    """Minimum weight over all simple s-t paths, by enumeration."""
    best = None
    for vec in simple_path_vectors(n, s, t):
        total = sum(Fraction(w) * c for w, c in zip(weights, vec))
        if best is None or total < best:
            best = total
    return best


def tropical_value_oracle(circuit, x) -> Fraction:
    """Optimum of <b, x> over the produced set (constant-free circuits)."""
    assert circuit.is_constant_free
    opt = min if circuit.semiring == MINPLUS else max
    assert circuit.semiring in (MINPLUS, MAXPLUS)
    return opt(
        sum(Fraction(xi) * bi for xi, bi in zip(x, b))
        for b in produced_set(circuit)
    )


def norm_axioms_hold(mu, vectors) -> bool:
    """Spot-check a NormMeasure's axioms on the finite set an audit touches."""
    n = len(mu.weights)
    zero = (0,) * n
    if mu(zero) > 1:
        return False
    for i in range(n):
        unit = zero[:i] + (1,) + zero[i + 1 :]
        if mu(unit) > 1:
            return False
    vecs = list(vectors)
    for x in vecs:
        for y in vecs:
            s = tuple(a + b for a, b in zip(x, y))
            if not mu(x) <= mu(s) <= mu(x) + mu(y):
                return False
    return True


def random_tropical_circuit(
    rng,
    *,
    max_n: int = 6,
    max_gates: int = 12,
    with_constants: bool = True,
    max_produced: int = 60,
):
    """(circuit, produced set) with a tropical tag and bounded produced set."""
    def make():
        n = rng.randint(2, max_n)
        gates = rng.randint(2, max_gates)
        semiring = rng.choice((MINPLUS, MAXPLUS))
        consts = []
        if with_constants:
            consts = [
                Fraction(rng.randint(0, 6), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            ]
        return _sample(rng, semiring, n, gates, 0.35, consts)

    return _bounded(rng, make, max_produced)


def random_monotone_boolean_circuit(
    rng, *, n: int, max_gates: int = 8, max_produced: int = 80
):
    """Constant-free monotone circuit on exactly n variables."""
    def make():
        gates = rng.randint(1, max_gates)
        return _sample(rng, BOOLEAN, n, gates, 0.45, [])

    circuit, _ = _bounded(rng, make, max_produced)
    return circuit


@pytest.fixture(autouse=True)
def _limits_left_unchanged():
    """Fail any test that leaves the resource limits changed."""
    before = guards.current()
    yield
    assert guards.current() == before, "test left troplab.guards limits changed"


@pytest.fixture
def rng():
    import random

    return random.Random(20240814)
