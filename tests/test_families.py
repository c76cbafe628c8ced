"""Set families, predicates, similarity, the truth-table oracle, file formats."""

from fractions import Fraction
from itertools import combinations

import pytest

from conftest import boolean_function_of, minterm_vectors, serialize_weighting
from troplab.circuits import VectorSet
from troplab.errors import GuardExceeded, UsageError
from troplab.families import (
    SetFamily,
    Weighting,
    is_antichain,
    is_d_disjoint,
    is_k_dense,
    is_matroid,
    is_separated,
    is_sidon_vectors,
    kdense_sampling_experiment,
    matroid_check,
    optimum,
    parse_family,
    parse_vectors,
    parse_weighting,
    predicates,
    serialize_family,
    serialize_vectors,
    similar,
)
from troplab.generators import graham_sloane_best, uniform_complement


def test_family_invariants():
    fam = SetFamily(3, [(1, 2), (2, 1), (3,)])
    assert len(fam) == 2  # dedup
    with pytest.raises(UsageError):
        SetFamily(3, [()])
    with pytest.raises(UsageError):
        SetFamily(3, [(4,)])


def test_optimum_examples():
    fam = SetFamily(3, [(1, 2), (3,)])
    assert optimum(fam, [1, 2, 10], "min") == 3
    assert optimum(fam, [1, 2, 10], "max") == 10
    star = SetFamily(4, [(1,), (2, 3, 4)])
    x = Weighting([Fraction(20, 19), 1, 1, 1])
    assert optimum(star, x, "max") == 3


def test_optimum_is_exact_on_float_weights():
    # greedy sums the same floats exactly, so a float optimum made the
    # min run "beat" it and the max ratio inexact
    from troplab.greedy import greedy_run

    fam = SetFamily(3, [(1, 2), (3,)])
    for x in ([0.1, 0.2, 0.30000000000000004], [0.1, 0.2, 0.3]):
        for sense in ("min", "max"):
            exact = optimum(fam, [Fraction(w) for w in x], sense)
            assert optimum(fam, x, sense) == exact
            assert greedy_run(fam, x, sense).optimum == exact


def test_optimum_matches_fraction_reference_on_mixed_weights():
    import random

    rng = random.Random(1415)
    fam = SetFamily(6, [(1, 2), (3, 4, 5), (2, 6), (1, 5), (4,)])
    pools = (
        lambda: rng.randint(0, 20),
        lambda: Fraction(rng.randint(0, 60), rng.choice((3, 7, 11))),
        lambda: rng.choice((0.1, 0.2, 0.3, 1e-3, rng.random() * 10)),
    )
    for trial in range(200):
        x = [rng.choice(pools)() for _ in range(fam.n)]
        for sense in ("min", "max"):
            totals = []
            for member in fam.members():
                total = Fraction(0)
                for e in member:
                    total += Fraction(x[e - 1])
                totals.append(total)
            want = min(totals) if sense == "min" else max(totals)
            got = optimum(fam, x, sense)
            assert type(got) is Fraction and got == want, (x, sense)
            assert optimum(fam, Weighting(x), sense) == want


def test_optimum_guards():
    fam = SetFamily(2, [(1,)])
    with pytest.raises(UsageError):
        optimum(fam, [1], "min")
    with pytest.raises(UsageError):
        optimum(fam, [1, 2], "best")


def test_weighting_rejects_negative():
    with pytest.raises(UsageError):
        Weighting([-1])


def test_matroid_examples():
    uniform = SetFamily(4, list(combinations(range(1, 5), 2)))
    assert is_matroid(uniform)
    check = matroid_check(SetFamily(4, [(1, 2), (3, 4)]))
    assert not check.is_matroid and check.failure == "exchange"
    assert check.witness is not None
    assert matroid_check(SetFamily(3, [(1,), (2, 3)])).failure == "not-uniform"


def test_separated_from_graham_sloane():
    _, h = graham_sloane_best(8, 4)
    assert is_separated(h)
    comp = uniform_complement(h, 4)
    assert is_matroid(comp)


def test_predicates_record():
    fam = SetFamily(4, list(combinations(range(1, 5), 2)))
    rep = predicates(fam, k=2, d=1)
    assert rep.is_antichain and rep.uniform == 2
    assert rep.is_k_dense
    assert not rep.is_d_disjoint  # distinct pairs can share one element
    assert predicates(fam, d=2).is_d_disjoint
    assert rep.is_matroid and rep.matroid_witness is None


def test_denseness():
    fam = SetFamily(4, list(combinations(range(1, 5), 2)))
    assert is_k_dense(fam, 2)
    assert not is_k_dense(SetFamily(8, [(1, 2)]), 2)
    with pytest.raises(GuardExceeded):
        is_k_dense(SetFamily(25, [(1,)]), 1)


def test_disjointness_and_antichain():
    fam = SetFamily(6, [(1, 2, 3), (3, 4, 5)])
    assert is_d_disjoint(fam, 2)
    assert not is_d_disjoint(fam, 1)
    assert is_antichain(fam)
    assert not is_antichain(SetFamily(3, [(1,), (1, 2)]))


def test_sidon_examples():
    assert is_sidon_vectors(VectorSet(2, [(1, 0), (0, 1)]))
    # (0,0)+(1,1) = (1,0)+(0,1) breaks the Sidon property
    bad = VectorSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not is_sidon_vectors(bad)


def test_similar_examples():
    a = VectorSet(3, [(1, 1, 0)])
    b = VectorSet(3, [(2, 1, 0), (1, 1, 1)])
    assert similar(a, b)
    assert not similar(VectorSet(2, [(1, 0)]), VectorSet(2, [(0, 1)]))
    assert similar(a, a)


def test_similar_with_the_zero_vector():
    # the empty support lies inside every support, and only the empty
    # support lies inside it
    zero = VectorSet(3, [(0, 0, 0)])
    both = VectorSet(3, [(0, 0, 0), (0, 2, 1)])
    assert similar(zero, both) and similar(both, zero)
    assert similar(VectorSet(3, [(0, 0, 0), (1, 1, 0)]), VectorSet(3, [(0, 0, 0), (0, 1, 1)]))
    assert not similar(zero, VectorSet(3, [(1, 0, 0), (0, 1, 1)]))
    assert not similar(VectorSet(3, [(1, 0, 0)]), both)


def test_boolean_function_examples():
    assert boolean_function_of(VectorSet(2, [(1, 1)])) == (0, 0, 0, 1)
    assert boolean_function_of(VectorSet(2, [(1, 0), (0, 1)])) == (0, 1, 1, 1)
    # perfect matchings of K_{2,2}: edges (1-1'),(1-2'),(2-1'),(2-2')
    matchings = VectorSet(4, [(1, 0, 0, 1), (0, 1, 1, 0)])
    table = boolean_function_of(matchings)
    assert table[0b1001] and table[0b0110]
    assert sum(table) == 7  # 2 minterms, their 4 strict supersets, and the full set


def _is_monotone(table):
    n = len(table).bit_length() - 1
    for i in range(n):
        step = 1 << i
        for m in range(1 << n):
            if not m >> i & 1 and table[m] > table[m | step]:
                return False
    return True


def test_boolean_function_duality():
    import random

    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        vecs = [
            tuple(rng.randint(0, 2) for _ in range(n))
            for _ in range(rng.randint(1, 6))
        ]
        vs = VectorSet(n, vecs)
        table = boolean_function_of(vs)
        for mask in range(1 << n):
            direct = any(
                all(mask >> i & 1 for i, c in enumerate(v) if c) for v in vs.vectors
            )
            assert table[mask] == int(direct)
        assert _is_monotone(table)


def test_similar_iff_same_boolean_function():
    import random

    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 7)
        mk = lambda: VectorSet(
            n,
            [
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            ],
        )
        a, b = mk(), mk()
        assert similar(a, b) == (boolean_function_of(a) == boolean_function_of(b))


def test_minterms_of_table():
    t = boolean_function_of(VectorSet(3, [(1, 1, 0), (2, 0, 1), (1, 1, 1)]))
    mins = minterm_vectors(t)
    assert mins.sorted_vectors() == [(1, 0, 1), (1, 1, 0)]


def test_optimum_min_le_max_property():
    import random

    rng = random.Random(7)
    fam = SetFamily(5, [(1, 2), (3, 4), (2, 5)])
    for _ in range(50):
        x = [rng.randint(0, 9) for _ in range(5)]
        lo = optimum(fam, x, "min")
        hi = optimum(fam, x, "max")
        assert lo <= hi
        values = {sum(x[e - 1] for e in s) for s in fam.members()}
        assert (lo == hi) == (len(values) == 1)


def test_kdense_sampling():
    assert kdense_sampling_experiment(8, 200, 3) >= Fraction(95, 100)
    fam = SetFamily(4, list(combinations(range(1, 5), 2)))
    assert is_k_dense(fam, 2)
    with pytest.raises(UsageError):
        kdense_sampling_experiment(7, 10, 0)


def test_file_formats_round_trip():
    fam = SetFamily(5, [(1, 3), (2, 4, 5)])
    assert parse_family(serialize_family(fam)) == fam
    w = Weighting([Fraction(1, 2), 0, 3, Fraction(7, 3), 1])
    assert parse_weighting(serialize_weighting(w)).values == w.values
    vs = VectorSet(3, [(0, 1, 2), (1, 1, 0)])
    assert parse_vectors(serialize_vectors(vs)) == vs
    with pytest.raises(UsageError):
        parse_family("vectors vars=2\n1 0\n")
    with pytest.raises(UsageError):
        parse_weighting("weights vars=2\n1\n")
