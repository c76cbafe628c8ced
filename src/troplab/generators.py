"""Deterministic constructors for the explicit families used throughout.

Index conventions (fixed here once, used by builders and the CLI):

* Grid families live on GF(m) x GF(m); the point (a, b) gets the
  1-based ground index ord(a)*m + ord(b) + 1, where ord is the canonical
  element order of the field (base-p digit codes).  Rows are indexed by
  the first coordinate, i.e. by the argument of the polynomials.
* Hypergraph edges (v1, ..., vk) in V1 x ... x Vk with vi in 0..m-1 get
  the lexicographic 1-based index v1*m^(k-1) + v2*m^(k-2) + ... + vk + 1.
* Bit blocks of Sidon vectors are little-endian coefficient vectors:
  bit i of a block is the coefficient of x^i in GF(2)[x].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, factorial

from . import guards
from .circuits import VectorSet
from .errors import GuardExceeded, UsageError
from .families import SetFamily
from .gf import Field

@dataclass(frozen=True)
class DesignSpec:
    """Parameters of a polynomial design: field order m, degree bound d."""

    m: int
    d: int

    def __post_init__(self):
        if self.m > 9:
            raise GuardExceeded("polynomial designs limited to field order m <= 9")
        if not 1 <= self.d <= self.m:
            raise UsageError(f"need 1 <= d <= m, got d={self.d}, m={self.m}")

    @property
    def field(self) -> Field:
        return Field.of_order(self.m)

    @property
    def ground_size(self) -> int:
        return self.m * self.m


@dataclass(frozen=True)
class HypergraphSpec:
    """k-partite hypergraph with parts of size m; ground set = all edges."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 2:
            raise UsageError("need m >= 1 and k >= 2")
        limit = guards.current().matchings
        if factorial(self.m) ** (self.k - 1) > limit:
            raise GuardExceeded(f"(m!)^(k-1) exceeds the {limit} matchings guard")

    @property
    def ground_size(self) -> int:
        return self.m**self.k


def grid_index(spec: DesignSpec, row: int, col: int) -> int:
    """1-based ground index of the grid point in row `row`, column `col`."""
    return row * spec.m + col + 1


def polynomial_design(spec: DesignSpec) -> SetFamily:
    """One m-point set per univariate polynomial of degree < d over GF(m).

    The set of p is {(a, p(a)) : a in GF(m)}: one point per row.  Each
    tuple of d element codes (zero is 0) is read as p's coefficients,
    leading term first, and p(a) is evaluated by Horner's rule on add
    and mul tables built once from `Field.add` and `Field.mul`.  Members
    come out in `SetFamily`'s mask order, whatever the enumeration order.
    """
    field = spec.field
    m = spec.m
    add = [[field.add(a, b) for b in range(m)] for a in range(m)]
    mul = [[field.mul(a, b) for b in range(m)] for a in range(m)]
    row_starts = [grid_index(spec, row, 0) for row in range(m)]
    sets = []
    for coeffs in product(range(m), repeat=spec.d):
        points = []
        for start, times_a in zip(row_starts, mul):
            value = 0
            for c in coeffs:
                value = add[times_a[value]][c]
            points.append(start + value)
        sets.append(tuple(points))
    family = SetFamily(spec.ground_size, sets)
    if len(family) != m**spec.d:
        raise AssertionError("distinct polynomials must give distinct sets")
    return family


def design_degree(family: SetFamily, l: int) -> int:
    """Largest number of members containing one fixed l-element set.

    Exhaustive over the l-subsets of members (any set contained in no
    member contributes 0 and cannot attain the maximum).
    """
    if l < 0:
        raise UsageError("l must be >= 0")
    if l == 0:
        return len(family)
    counter = {}
    for member in family.members():
        if len(member) < l:
            continue
        for sub in combinations(member, l):
            counter[sub] = counter.get(sub, 0) + 1
    return max(counter.values(), default=0)


def graham_sloane(n: int, m: int, l: int) -> SetFamily:
    """All m-subsets of [n] whose index sum is l mod n (a separated family)."""
    if not 0 <= l < n:
        raise UsageError(f"need 0 <= l < n, got l={l}")
    if not 1 <= m <= n:
        raise UsageError(f"need 1 <= m <= n, got m={m}")
    sets = [s for s in combinations(range(1, n + 1), m) if sum(s) % n == l]
    return SetFamily(n, sets)


def graham_sloane_best(n: int, m: int):
    """(l, family) for the residue class of maximal size; ties to smaller l.

    The classes partition all m-subsets, so the best one has at least
    C(n, m)/n members.
    """
    best_l, best = 0, graham_sloane(n, m, 0)
    for l in range(1, n):
        fam = graham_sloane(n, m, l)
        if len(fam) > len(best):
            best_l, best = l, fam
    assert len(best) * n >= comb(n, m)
    return best_l, best


def uniform_complement(family: SetFamily, m: int) -> SetFamily:
    """C([n], m) minus the family; a matroid whenever the family is separated."""
    sets = [
        s for s in combinations(range(1, family.n + 1), m) if s not in family
    ]
    return SetFamily(family.n, sets)


def graham_sloane_matroid(n: int, m: int) -> SetFamily:
    """Complement of the largest residue class: an explicit non-trivial matroid."""
    _, h = graham_sloane_best(n, m)
    return uniform_complement(h, m)


def edge_index(spec: HypergraphSpec, edge) -> int:
    """1-based lexicographic index of an edge (v1, ..., vk), vi in 0..m-1."""
    idx = 0
    for v in edge:
        if not 0 <= v < spec.m:
            raise UsageError(f"vertex {v} out of range")
        idx = idx * spec.m + v
    return idx + 1


def hypergraph_matchings(spec: HypergraphSpec) -> SetFamily:
    """All perfect matchings of the complete k-partite m-per-part hypergraph.

    A perfect matching picks, for slot j in part 1, the edge
    (j, s2(j), ..., sk(j)) for permutations s2..sk, so there are
    (m!)^(k-1) of them, each a set of m edges.
    """
    perms = list(permutations(range(spec.m)))
    sets = []
    for tail in product(perms, repeat=spec.k - 1):
        edges = []
        for j in range(spec.m):
            edge = (j,) + tuple(perm[j] for perm in tail)
            edges.append(edge_index(spec, edge))
        sets.append(tuple(edges))
    family = SetFamily(spec.ground_size, sets)
    if len(family) != factorial(spec.m) ** (spec.k - 1):
        raise AssertionError("matchings must be pairwise distinct")
    return family


def sidon_cubic(m: int) -> VectorSet:
    """Uniform Sidon set from the cubic parabola over GF(2^m), m odd.

    Vectors have arity 4m and shape (a, a^3, ~a, ~a^3): bits of a, bits
    of its cube in GF(2^m), then the bitwise complements of both blocks.
    Oddness of m makes cubing a bijection, which the factor-2
    approximator relies on; even m is rejected.
    """
    if m % 2 == 0:
        raise UsageError("m must be odd (cubing is not a bijection for even m)")
    if not 3 <= m <= 13:
        raise UsageError("m out of the supported range 3..13")
    field = Field.of(2, m)
    vectors = []
    for code in range(1 << m):
        a_bits = list(field.coeffs(code))
        c_bits = list(field.coeffs(field.mul(field.mul(code, code), code)))
        vec = (
            a_bits
            + c_bits
            + [1 - b for b in a_bits]
            + [1 - b for b in c_bits]
        )
        vectors.append(tuple(vec))
    out = VectorSet(4 * m, vectors)
    if len(out) != 1 << m:
        raise AssertionError("cubic parabola vectors must be distinct")
    assert all(sum(v) == 2 * m for v in out)
    return out
