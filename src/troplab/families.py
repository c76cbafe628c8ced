"""Optimization problems as data: set families, weightings, predicates.

Families of feasible solutions are stored as sorted tuples of bitmasks
over ground elements 1..n (bit i-1 <-> element i), which makes the
containment oracles used by predicates, greedy and the certifier O(1)
per test.  All numeric comparisons are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import guards
from .circuits import VectorSet
from .errors import GuardExceeded, UsageError
from .rationals import clear_denominators, parse_rational

def _mask_of(elements, n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise UsageError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def _mask_to_set(mask: int):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class SetFamily:
    """Finite family of nonempty subsets of {1..n}, deduplicated."""

    __slots__ = ("n", "masks", "_members", "_elem_masks", "_mask_set")

    def __init__(self, n: int, sets):
        masks = set()
        for s in sets:
            mask = s if isinstance(s, int) else _mask_of(s, n)
            if mask == 0:
                raise UsageError("the empty set is not a feasible solution")
            if mask >> n:
                raise UsageError("set exceeds the ground set")
            masks.add(mask)
        self.n = n
        self.masks = tuple(sorted(masks))
        self._members = None
        self._elem_masks = None
        self._mask_set = None

    def members(self):
        if self._members is None:
            self._members = [_mask_to_set(m) for m in self.masks]
        return self._members

    def element_member_masks(self):
        """For each element, the bitmask over member indices containing it."""
        if self._elem_masks is None:
            table = [0] * (self.n + 1)
            for idx, mask in enumerate(self.masks):
                bit = 1 << idx
                m = mask
                e = 1
                while m:
                    if m & 1:
                        table[e] |= bit
                    m >>= 1
                    e += 1
            self._elem_masks = table
        return self._elem_masks

    def characteristic_vectors(self) -> VectorSet:
        return VectorSet(
            self.n,
            (tuple((m >> i) & 1 for i in range(self.n)) for m in self.masks),
        )

    def __len__(self):
        return len(self.masks)

    def has_member(self, mask: int) -> bool:
        if self._mask_set is None:
            self._mask_set = frozenset(self.masks)
        return mask in self._mask_set

    def __contains__(self, s):
        mask = s if isinstance(s, int) else _mask_of(s, self.n)
        return self.has_member(mask)

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return f"SetFamily(n={self.n}, {len(self.masks)} sets)"


class Weighting:
    """Vector of n nonnegative rationals."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Fraction(v) for v in values)
        if any(v < 0 for v in vals):
            raise UsageError("weights must be nonnegative")
        self.values = vals

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def optimum(family: SetFamily, x, sense: str) -> Fraction:
    """Exact optimum weight of a feasible solution, by enumeration.

    The weighting's denominators are cleared once (a float is converted
    exactly, as greedy and evaluate do), so each member's weight is an
    int sum and the optimum is one Fraction over the common denominator.
    """
    if sense not in ("min", "max"):
        raise UsageError(f"sense must be 'min' or 'max', got {sense!r}")
    if not family.masks:
        raise UsageError("optimum of an empty family")
    nums, den = clear_denominators(list(x))
    if len(nums) != family.n:
        raise UsageError(f"weighting arity {len(nums)} != ground size {family.n}")
    w = [0, *nums]  # w[e] = den * weight of element e
    pick = min if sense == "min" else max
    best = pick(sum(map(w.__getitem__, member)) for member in family.members())
    return Fraction(best, den)


# ---------------------------------------------------------------------------
# Predicates


def is_antichain(family: SetFamily) -> bool:
    masks = family.masks
    for a, b in combinations(masks, 2):
        if a & b == a or a & b == b:
            return False
    return True


def uniform_size(family: SetFamily):
    """Common cardinality of the members, or None if not uniform."""
    sizes = {m.bit_count() for m in family.masks}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def is_k_dense(family: SetFamily, k: int) -> bool:
    """Every k-subset of the ground set lies inside some member."""
    n = family.n
    if n > guards.current().dense_ground:
        raise GuardExceeded(f"denseness check limited to n <= {guards.current().dense_ground}")
    if k < 0 or k > n:
        raise UsageError(f"k = {k} out of range")
    if k == 0:
        return bool(family.masks)
    covered = set()
    for mask in family.masks:
        elems = _mask_to_set(mask)
        if len(elems) < k:
            continue
        for sub in combinations(elems, k):
            covered.add(_mask_of(sub, n))
    return len(covered) == comb(n, k)


def is_d_disjoint(family: SetFamily, d: int) -> bool:
    """No two distinct members share d or more elements."""
    if d < 1:
        raise UsageError("d must be >= 1")
    masks = family.masks
    top = max((m.bit_count() for m in masks), default=0)
    if d > top:
        return True
    if d == top and uniform_size(family) == d:
        return True  # distinct d-sets cannot share d elements
    for a, b in combinations(masks, 2):
        if (a & b).bit_count() >= d:
            return False
    return True


def is_separated(family: SetFamily) -> bool:
    """Pairwise Hamming distance > 2."""
    for a, b in combinations(family.masks, 2):
        if (a ^ b).bit_count() <= 2:
            return False
    return True


def is_sidon_vectors(vectors: VectorSet) -> bool:
    """a+b = c+d forces {a,b} = {c,d}; checked over all unordered pairs."""
    vecs = vectors.sorted_vectors()
    if len(vecs) > guards.current().sidon_vectors:
        raise GuardExceeded(f"Sidon check limited to {guards.current().sidon_vectors} vectors")
    sums = {}
    for i in range(len(vecs)):
        for j in range(i, len(vecs)):
            s = tuple(a + b for a, b in zip(vecs[i], vecs[j]))
            if s in sums:
                return False
            sums[s] = (i, j)
    return True


def is_sidon(family: SetFamily) -> bool:
    return is_sidon_vectors(family.characteristic_vectors())


@dataclass(frozen=True)
class MatroidCheck:
    is_matroid: bool
    failure: str | None = None  # None | "not-uniform" | "exchange"
    witness: tuple | None = None  # (A, B, a) for an exchange failure


def matroid_check(family: SetFamily) -> MatroidCheck:
    """Basis exchange axiom over all pairs; members are the bases.

    Requires a uniform family (the bases of a matroid are equicardinal);
    a non-uniform family fails with reason "not-uniform".
    """
    if uniform_size(family) is None:
        return MatroidCheck(False, "not-uniform")
    masks = family.masks
    for am in masks:
        for bm in masks:
            if am == bm:
                continue
            only_a = am & ~bm
            only_b = bm & ~am
            m = only_a
            while m:
                abit = m & -m
                m ^= abit
                base = am ^ abit
                mb = only_b
                found = False
                while mb:
                    bbit = mb & -mb
                    mb ^= bbit
                    if family.has_member(base | bbit):
                        found = True
                        break
                if not found:
                    a_elem = abit.bit_length()
                    return MatroidCheck(
                        False,
                        "exchange",
                        (_mask_to_set(am), _mask_to_set(bm), a_elem),
                    )
    return MatroidCheck(True)


def is_matroid(family: SetFamily) -> bool:
    return matroid_check(family).is_matroid


@dataclass(frozen=True)
class PredicateReport:
    is_antichain: bool
    uniform: int | None
    is_k_dense: bool | None
    is_d_disjoint: bool | None
    is_separated: bool
    is_sidon: bool
    is_matroid: bool
    matroid_witness: tuple | None


def predicates(family: SetFamily, k: int | None = None, d: int | None = None) -> PredicateReport:
    check = matroid_check(family)
    return PredicateReport(
        is_antichain=is_antichain(family),
        uniform=uniform_size(family),
        is_k_dense=None if k is None else is_k_dense(family, k),
        is_d_disjoint=None if d is None else is_d_disjoint(family, d),
        is_separated=is_separated(family),
        is_sidon=is_sidon(family),
        is_matroid=check.is_matroid,
        matroid_witness=check.witness,
    )


# ---------------------------------------------------------------------------
# Boolean side


def similar(a: VectorSet, b: VectorSet) -> bool:
    """Every support in each set contains some support of the other."""
    if a.n != b.n:
        raise UsageError("vector sets of different arity")
    sa = a.supports()
    sb = b.supports()
    return all(map(cover_test(sa), sb)) and all(map(cover_test(sb), sa))


def cover_test(inner):
    """The predicate covers(s): does the mask s contain some mask of inner?

    A mask that is not in inner exactly is compared only with the masks
    of inner whose lowest bit is one of its own bits: a mask inside s
    has its lowest bit in s.  The empty mask (the zero vector's
    support) lies inside every mask.
    """
    members = set(inner)
    if 0 in members:
        return lambda s: True
    buckets = {}
    for t in members:
        buckets.setdefault(t & -t, []).append(t)

    def covers(s):
        if s in members:
            return True
        bits = s
        while bits:
            low = bits & -bits
            for t in buckets.get(low, ()):
                if t & s == t:
                    return True
            bits ^= low
        return False

    return covers


class BooleanTable:
    """Truth table of a function on n <= 20 variables, packed into an int."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n > guards.current().table_variables:
            raise GuardExceeded(
                f"truth tables limited to {guards.current().table_variables} variables")
        self.n = n
        self.bits = bits

    def value(self, mask: int) -> int:
        return (self.bits >> mask) & 1

    def __eq__(self, other):
        return (
            isinstance(other, BooleanTable)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))


def boolean_function_of(a: VectorSet) -> BooleanTable:
    """Monotone table: true on x iff supp(x) covers the support of some vector.

    The upward closure over the subset lattice is taken with n shifted
    ORs on the 2^n-bit table, so n = 20 stays cheap.
    """
    n = a.n
    if n > guards.current().table_variables:
        raise GuardExceeded(
            f"truth tables limited to {guards.current().table_variables} variables")
    bits = 0
    for mask in a.supports():
        bits |= 1 << mask
    total = 1 << (1 << n)
    for i in range(n):
        block = (1 << (1 << i)) - 1
        period = (1 << (1 << (i + 1))) - 1
        keep = block * ((total - 1) // period)  # bits whose index lacks bit i
        bits |= (bits & keep) << (1 << i)
    return BooleanTable(n, bits)


def kdense_sampling_experiment(n: int, trials: int, seed: int) -> Fraction:
    """Fraction of random half-size families that are (n/2 - 2)-dense.

    Each (n/2)-subset of [n] enters the family independently with
    probability 1/2, via a seeded generator.
    """
    if n % 2 or not 4 <= n <= 14:
        raise UsageError("n must be even with 4 <= n <= 14")
    rng = random.Random(seed)
    m = n // 2
    k = m - 2
    hits = 0
    all_subsets = list(combinations(range(1, n + 1), m))
    for _ in range(trials):
        chosen = [s for s in all_subsets if rng.getrandbits(1)]
        if not chosen:
            continue
        fam = SetFamily(n, chosen)
        if k == 0 or is_k_dense(fam, k):
            hits += 1
    return Fraction(hits, trials)


# ---------------------------------------------------------------------------
# File formats


def serialize_family(family: SetFamily) -> str:
    lines = [f"family vars={family.n}"]
    for member in family.members():
        lines.append(" ".join(str(e) for e in member))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> SetFamily:
    lines = _content_lines(text)
    n = _parse_header(lines[0], "family")
    sets = [tuple(int(tok) for tok in line.split()) for line in lines[1:]]
    return SetFamily(n, sets)


def parse_weighting(text: str) -> Weighting:
    lines = _content_lines(text)
    n = _parse_header(lines[0], "weights")
    values = [parse_rational(tok) for line in lines[1:] for tok in line.split()]
    if len(values) != n:
        raise UsageError(f"expected {n} weights, got {len(values)}")
    return Weighting(values)


def serialize_vectors(vs: VectorSet) -> str:
    lines = [f"vectors vars={vs.n}"]
    for v in vs.sorted_vectors():
        lines.append(" ".join(str(c) for c in v))
    return "\n".join(lines) + "\n"


def parse_vectors(text: str) -> VectorSet:
    lines = _content_lines(text)
    n = _parse_header(lines[0], "vectors")
    vecs = [tuple(int(tok) for tok in line.split()) for line in lines[1:]]
    return VectorSet(n, vecs)


def _content_lines(text: str):
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise UsageError("empty file")
    return lines


def _parse_header(line: str, kind: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != kind or not parts[1].startswith("vars="):
        raise UsageError(f"bad {kind} header {line!r}")
    try:
        return int(parts[1][5:])
    except ValueError as exc:
        raise UsageError(f"bad variable count in {line!r}") from exc
