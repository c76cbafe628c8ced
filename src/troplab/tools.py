"""Seeded random Minkowski circuits for `troplab report decomposition`.

Circuits are sampled gate by gate (children uniform over earlier
nodes, a sum gate with probability mul_prob); a sample whose produced
set overruns the requested cap is discarded and redrawn.  All draws go
through the caller's Random instance, so a corpus is reproducible from
the seed alone.  The test suite draws its tropical and boolean corpora
with the same _sample and _bounded.
"""

from __future__ import annotations

from fractions import Fraction

from . import guards
from .circuits import (
    MINKOWSKI,
    Add,
    Circuit,
    Const,
    Mul,
    Var,
    produced_set,
)
from .errors import GuardExceeded


def _sample(rng, semiring, n, gates, mul_prob, consts):
    nodes = [(f"x{i}", Var(i)) for i in range(1, n + 1)]
    ids = [nid for nid, _ in nodes]
    for j, value in enumerate(consts, start=1):
        nodes.append((f"k{j}", Const(Fraction(value))))
        ids.append(f"k{j}")
    for g in range(1, gates + 1):
        kind = Mul if rng.random() < mul_prob else Add
        left = rng.choice(ids)
        right = rng.choice(ids)
        nid = f"g{g}"
        nodes.append((nid, kind(left, right)))
        ids.append(nid)
    return Circuit(semiring, n, nodes, ids[-1])


def _bounded(rng, make, cap):
    while True:
        c = make()
        try:
            with guards.limits(produced_vectors=cap):
                b = produced_set(c)
        except GuardExceeded:
            continue
        zero = (0,) * c.n
        if len(b) == 1 and zero in b:
            continue  # all-constant output: useless as a problem
        return c, b


# random_minkowski_circuit draws up to MAX_N variables and MAX_GATES gates,
# and redraws a circuit with a gate set of over MAX_PRODUCED vectors.
MAX_N = 6
MAX_GATES = 15
MAX_PRODUCED = 40


def random_minkowski_circuit(rng):
    """Union/sumset circuit whose produced set has entries above 1 now and then."""
    def make():
        n = rng.randint(2, MAX_N)
        gates = rng.randint(3, MAX_GATES)
        consts = [0] * rng.randint(0, 1)
        return _sample(rng, MINKOWSKI, n, gates, 0.5, consts)

    circuit, _ = _bounded(rng, make, MAX_PRODUCED)
    return circuit

