"""Explicit family constructors against their stated combinatorics."""

from itertools import product

import pytest

from troplab.errors import GuardExceeded, UsageError
from troplab.families import (
    is_d_disjoint,
    is_k_dense,
    is_matroid,
    is_separated,
    is_sidon_vectors,
    uniform_size,
)
from troplab.generators import (
    DesignSpec,
    HypergraphSpec,
    design_degree,
    graham_sloane,
    graham_sloane_best,
    graham_sloane_matroid,
    grid_index,
    hypergraph_matchings,
    polynomial_design,
    sidon_cubic,
    uniform_complement,
)
from troplab.families import SetFamily
from troplab.gf import Field


def test_design_2_1_constant_rows():
    fam = polynomial_design(DesignSpec(2, 1))
    # constant polynomials: one point per row, same column
    assert fam.members() == [(1, 3), (2, 4)]
    assert is_d_disjoint(fam, 1)


def test_design_3_2_counts():
    fam = polynomial_design(DesignSpec(3, 2))
    assert len(fam) == 9
    assert uniform_size(fam) == 3
    assert is_d_disjoint(fam, 2)


@pytest.mark.parametrize("m,d", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_design_degree_formula(m, d):
    fam = polynomial_design(DesignSpec(m, d))
    for l in range(d + 1):
        assert design_degree(fam, l) == m ** (d - l)


def _reference_design(spec):
    """The design's members by FieldElement Horner evaluation, one point per row."""
    field = spec.field
    elements = field.elements()
    members = []
    for coeffs in product(elements, repeat=spec.d):
        points = []
        for row, a in enumerate(elements):
            value = field.zero
            for c in reversed(coeffs):
                value = value * a + c
            points.append(grid_index(spec, row, value.to_int()))
        members.append(tuple(points))
    return members


@pytest.mark.parametrize("m,d", [
    (m, d) for m in range(2, 10) for d in range(1, min(m, 3) + 1) if m**d <= 20_000])
def test_design_matches_field_element_horner(m, d):
    """The int-table design equals FieldElement arithmetic, member for
    member and in order, on every field order up to 9; 6 stays an error."""
    if m == 6:
        with pytest.raises(UsageError, match="not a supported prime power"):
            polynomial_design(DesignSpec(m, d))
        return
    spec = DesignSpec(m, d)
    reference = _reference_design(spec)
    fam = polynomial_design(spec)
    assert len(reference) == len(fam) == m**d
    expected = SetFamily(spec.ground_size, reference)
    assert fam.masks == expected.masks
    assert fam.members() == expected.members()
    assert sorted(fam.members()) == sorted(reference)


def test_same_row_points_in_no_design_set():
    spec = DesignSpec(3, 2)
    fam = polynomial_design(spec)
    p, q = grid_index(spec, 0, 0), grid_index(spec, 0, 1)
    members = fam.members()
    assert not any(p in s and q in s for s in members)


def test_design_guards():
    with pytest.raises(UsageError):
        DesignSpec(3, 4)
    with pytest.raises(GuardExceeded):
        DesignSpec(11, 1)
    with pytest.raises(UsageError):
        polynomial_design(DesignSpec(6, 1))  # 6 is not a prime power


def test_graham_sloane_small():
    fam = graham_sloane(4, 2, 1)
    assert sorted(fam.members()) == [(1, 4), (2, 3)]
    assert is_separated(fam)
    # Hamming distance between the two members is 4 > 2
    a, b = fam.masks
    assert (a ^ b).bit_count() == 4


def test_graham_sloane_best_bound():
    l, fam = graham_sloane_best(8, 4)
    assert len(fam) >= 9  # ceil(C(8,4)/8) = ceil(8.75)
    assert 0 <= l < 8


@pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (10, 5)])
def test_complement_of_separated_is_matroid(n, m):
    _, h = graham_sloane_best(n, m)
    fam = uniform_complement(h, m)
    assert is_matroid(fam)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_complement_matroid_is_dense(n):
    m = n // 2
    fam = graham_sloane_matroid(n, m)
    assert is_k_dense(fam, m - 1)


def test_hypergraph_matchings_counts():
    assert len(hypergraph_matchings(HypergraphSpec(2, 2))) == 2
    assert len(hypergraph_matchings(HypergraphSpec(3, 2))) == 6
    fam = hypergraph_matchings(HypergraphSpec(3, 3))
    assert len(fam) == 36
    assert uniform_size(fam) == 3
    assert fam.n == 27
    with pytest.raises(GuardExceeded):
        HypergraphSpec(9, 9)


def test_matchings_are_vertex_disjoint_edges():
    spec = HypergraphSpec(3, 2)
    fam = hypergraph_matchings(spec)
    for member in fam.members():
        edges = [divmod(e - 1, 3) for e in member]
        assert len({a for a, _ in edges}) == 3
        assert len({b for _, b in edges}) == 3


def test_sidon_cubic_m3():
    a = sidon_cubic(3)
    assert len(a) == 8 and a.n == 12
    assert all(sum(v) == 6 for v in a)
    assert is_sidon_vectors(a)


def test_sidon_cubic_m5():
    a = sidon_cubic(5)
    assert len(a) == 32 and a.n == 20
    assert is_sidon_vectors(a)


def test_sidon_brute_force_quadruples_m3():
    a = sidon_cubic(3).sorted_vectors()
    for i in range(len(a)):
        for j in range(i, len(a)):
            for k in range(len(a)):
                for l in range(k, len(a)):
                    if (i, j) >= (k, l):
                        continue
                    s1 = tuple(x + y for x, y in zip(a[i], a[j]))
                    s2 = tuple(x + y for x, y in zip(a[k], a[l]))
                    assert s1 != s2


def test_sidon_block_structure():
    m = 5
    field = Field.of(2, m)
    for v in sidon_cubic(m):
        first, second, third, fourth = (
            v[:m],
            v[m : 2 * m],
            v[2 * m : 3 * m],
            v[3 * m :],
        )
        assert all(x + y == 1 for x, y in zip(first, third))
        assert all(x + y == 1 for x, y in zip(second, fourth))
        e = field.element(first)
        assert (e * e * e).coeffs == tuple(second)


def test_sidon_rejects_even_and_out_of_range():
    with pytest.raises(UsageError):
        sidon_cubic(4)
    with pytest.raises(UsageError):
        sidon_cubic(15)
