"""Structural toolbox: gate residues, windowed decompositions,
rectangle audits, and the closed-form bound calculators.

With B the set produced by a circuit, every node v carries the sumset
pr(v) + res(v) inside B, where res(v) collects the translates y with
pr(v) + y contained in B.  A norm measure (monotone, subadditive, at
most 1 on the unit vectors and 0) turns these sumsets into a covering
with a guaranteed split window: for any produced b of norm above 1 and
any theta in [1/norm(b), 1), some node splits b = x + y with
norm(x) in (theta*norm(b)/2, theta*norm(b)].  The traversal below walks
the circuit backwards from the output exactly as that argument does and
re-verifies the returned split.

Residue computation is meant for constant-free circuits with 0-1 or
small-integer produced sets; it is quadratic in |B|*|pr(v)| per node,
which is fine at the scale of everything in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

from .circuits import (
    Add,
    Circuit,
    Const,
    Var,
    VectorSet,
    produced_node_sets,
)
from .errors import InternalCheck, UsageError
from .families import SetFamily
from .generators import DesignSpec, polynomial_design, design_degree
from .rationals import ceil_rational, floor_rational
from .certify import certify_max


@dataclass(frozen=True)
class GateSumset:
    node_id: str
    produced: VectorSet
    residue: VectorSet


@dataclass(frozen=True)
class NormMeasure:
    """Vector norm for decompositions: monotone, subadditive, small on units."""

    name: str
    weights: tuple  # inner-product form <a, .>; entries in [0, 1]

    def __post_init__(self):
        for w in self.weights:
            if not 0 <= Fraction(w) <= 1:
                raise UsageError("inner-product norms need entries in [0, 1]")

    def __call__(self, vec) -> Fraction:
        return sum((Fraction(w) * c for w, c in zip(self.weights, vec)), Fraction(0))

    def check_axioms_on(self, vectors) -> bool:
        """Spot-check the axioms on the finite set an audit touches."""
        n = len(self.weights)
        zero = (0,) * n
        if self(zero) > 1:
            return False
        for i in range(n):
            unit = zero[:i] + (1,) + zero[i + 1 :]
            if self(unit) > 1:
                return False
        vecs = list(vectors)
        for x in vecs:
            for y in vecs:
                s = tuple(a + b for a, b in zip(x, y))
                if not self(x) <= self(s) <= self(x) + self(y):
                    return False
        return True


def residues(circuit: Circuit) -> list[GateSumset]:
    """Sumset pr(v) + res(v) for every node, input nodes included.

    res(v) = {y : pr(v) + y inside B}; candidates are differences b - x
    over b in B, x in pr(v), then filtered by translating all of pr(v).
    The defining containment pr(v) + res(v) inside B is asserted.
    """
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
        keep = [
            y
            for y in candidates
            if all(
                tuple(xi + yi for xi, yi in zip(x, y)) in b_set for x in x_set
            )
        ]
        out.append(
            GateSumset(nid, VectorSet(circuit.n, x_set), VectorSet(circuit.n, keep))
        )
    for gs in out:
        if gs.node_id == circuit.output and gs.residue.vectors != {(0,) * circuit.n}:
            raise InternalCheck("output residue must be exactly the zero vector")
    return out


def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class Decomposition:
    node_id: str
    x: tuple
    y: tuple
    norm_x: Fraction


def decompose(
    circuit: Circuit, mu: NormMeasure, b, theta: Fraction
) -> Decomposition:
    """Backward walk from the output to a split in the theta window.

    Returns a node v and vectors x in pr(v), y in res(v) with x + y = b
    and theta*mu(b)/2 < mu(x) <= theta*mu(b).  At every step the move
    keeps a valid decomposition whose norm drops by at most half, which
    is asserted; the final split is re-verified against B directly.
    """
    theta = Fraction(theta)
    b = tuple(int(c) for c in b)
    per_node = produced_node_sets(circuit)
    b_set = per_node[circuit.output]
    if b not in b_set:
        raise UsageError("target vector is not produced by the circuit")
    mu_b = mu(b)
    if not mu_b > 1:
        raise UsageError("the target must have norm > 1")
    if not (Fraction(1) / mu_b <= theta < 1):
        raise UsageError("theta must lie in [1/norm(b), 1)")

    target = theta * mu_b
    by_id = dict(circuit.nodes)
    node_id = circuit.output
    x, y = b, (0,) * circuit.n
    norm_x = mu_b  # > target since theta < 1

    while True:
        node = by_id[node_id]
        if isinstance(node, (Var, Const)):
            raise InternalCheck("walk reached an input while above the window")
        left, right = node.left, node.right
        if isinstance(node, Add):
            child = left if x in per_node[left] else right
            if x not in per_node[child]:
                raise InternalCheck("union gate lost its decomposition")
            step = (child, x, y, norm_x)
        else:
            step = None
            for xl in sorted(per_node[left]):
                if any(c < 0 for c in _vec_sub(x, xl)):
                    continue
                xr = _vec_sub(x, xl)
                if xr not in per_node[right]:
                    continue
                nl, nr = mu(xl), mu(xr)
                if nl >= nr:
                    cand = (left, xl, _vec_add(xr, y), nl)
                else:
                    cand = (right, xr, _vec_add(xl, y), nr)
                if 2 * cand[3] >= norm_x:
                    step = cand
                    break
            if step is None:
                raise InternalCheck("sum gate admits no half-norm split")
        child, cx, cy, cnorm = step
        if not (norm_x / 2 <= cnorm <= norm_x):
            raise InternalCheck("step left the half-norm window")
        node_id, x, y, norm_x = child, cx, cy, cnorm
        if norm_x <= target:
            break

    if not (target / 2 < norm_x <= target):
        raise InternalCheck("final split missed the theta window")
    if x not in per_node[node_id]:
        raise InternalCheck("split vector not produced at the found node")
    if _vec_add(x, y) != b:
        raise InternalCheck("split does not sum to the target")
    for xx in per_node[node_id]:
        if _vec_add(xx, y) not in b_set:
            raise InternalCheck("translate check failed: y is not a residue vector")
    return Decomposition(node_id, x, y, norm_x)


# ---------------------------------------------------------------------------
# Rectangles


@dataclass(frozen=True)
class Rectangle:
    """Cross-disjoint pair of families; the rectangle is all unions A u B."""

    n: int
    a_side: tuple  # masks
    b_side: tuple  # masks

    def is_cross_disjoint(self) -> bool:
        return all(a & b == 0 for a in self.a_side for b in self.b_side)

    def union_masks(self):
        return {a | b for a in self.a_side for b in self.b_side}


def rectangle_below_family(rect: Rectangle, family: SetFamily) -> bool:
    """Every union set of the rectangle is contained in some member."""
    members = family.masks
    return all(
        any(u & m == u for m in members) for u in rect.union_masks()
    )


def balanced_in_rectangle(
    f_mask: int, rect: Rectangle, r: Fraction, beta: Fraction
) -> bool:
    """Does the set appear (r, beta)-balanced in the rectangle?

    Needs one pair (A, B) with |F n (A u B)| >= |F|/r,
    |F n A| > (beta/2r)|F| (strict) and |F n B| >= ((1-beta)/r)|F|.
    """
    r = Fraction(r)
    beta = Fraction(beta)
    size = f_mask.bit_count()
    a_min = beta * size / (2 * r)
    union_min = size / r
    b_min = (1 - beta) * size / r
    for amask in rect.a_side:
        ca = (f_mask & amask).bit_count()
        if not ca > a_min:
            continue
        for bmask in rect.b_side:
            cb = (f_mask & bmask).bit_count()
            cu = (f_mask & (amask | bmask)).bit_count()
            if cu >= union_min and cb >= b_min:
                return True
    return False


@dataclass
class RectangleAudit:
    node_id: str
    rectangle: Rectangle
    below_family: bool
    cross_disjoint: bool
    balanced_count: int


@dataclass
class AuditReport:
    factor: Fraction
    beta: Fraction
    rectangles: list
    uncovered: list  # members large enough that appear balanced nowhere
    h_max: int
    implied_bound: Fraction | None

    @property
    def all_properties_hold(self) -> bool:
        return (
            all(r.below_family and r.cross_disjoint for r in self.rectangles)
            and not self.uncovered
        )


def audit_circuit_rectangles(
    circuit: Circuit,
    family: SetFamily,
    r: Fraction,
    beta: Fraction,
    *,
    precertified: bool = False,
) -> AuditReport:
    """Extract support rectangles from all node sumsets and audit them.

    Verifies, per rectangle: every union lies below the family and the
    sides are cross-disjoint; globally: every member with at least
    r/beta elements appears (r, beta)-balanced in some rectangle.
    Balanced counts give the circuit-size bound |F| / h_max.
    """
    r = Fraction(r)
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise UsageError("beta must lie strictly between 0 and 1")
    if not precertified:
        bundle = certify_max(circuit, family.characteristic_vectors(), r)
        if not bundle.verdict:
            raise UsageError(
                f"circuit is not certified at factor {r}; audit precondition unmet"
            )
    audits = []
    for gs in residues(circuit):
        if len(gs.residue) == 0:
            continue
        if not (gs.produced.is_zero_one() and gs.residue.is_zero_one()):
            raise UsageError("rectangle extraction needs 0-1 sumsets")
        rect = Rectangle(
            circuit.n,
            tuple(sorted(gs.produced.supports())),
            tuple(sorted(gs.residue.supports())),
        )
        audits.append(
            RectangleAudit(
                gs.node_id,
                rect,
                rectangle_below_family(rect, family),
                rect.is_cross_disjoint(),
                0,
            )
        )

    threshold = r / beta
    uncovered = []
    for mask in family.masks:
        hits = 0
        for audit in audits:
            if balanced_in_rectangle(mask, audit.rectangle, r, beta):
                audit.balanced_count += 1
                hits += 1
        if hits == 0 and mask.bit_count() >= threshold:
            uncovered.append(mask)

    h_max = max((a.balanced_count for a in audits), default=0)
    implied = Fraction(len(family), h_max) if h_max else None
    return AuditReport(r, beta, audits, uncovered, h_max, implied)


# ---------------------------------------------------------------------------
# Closed-form bound calculators


@dataclass(frozen=True)
class DesignBound:
    m: int
    d: int
    beta: Fraction
    factor: Fraction          # (1-beta) m / d
    l: Fraction               # beta d / 2
    bound_ceil: int           # m^ceil(l): family size over degree at ceil(l)
    bound_floor: int
    degree_ceil: int          # m^(d - ceil(l))
    enumerated_degree: int | None  # deg from the actual family, when built


@dataclass(frozen=True)
class MatchingBound:
    m: int
    k: int
    r: Fraction
    d: int                    # ceil(m / 3r)
    bound: Fraction           # C(2d,d)^(k-1) / C(m,2d)


@dataclass(frozen=True)
class CountingBound:
    n: int
    t: int
    circuit_count_log2: float     # log2 of 2^t (t+n)^(2t), approximate display
    matroid_count_log2: Fraction  # C(n, n/2)/n, exact
    strictly_fewer_circuits: bool  # exact big-integer comparison


def design_bound(m: int, d: int, beta: Fraction, enumerate_degree: bool = False) -> DesignBound:
    beta = Fraction(beta)
    if not Fraction(1, d + 1) <= beta < 1:
        raise UsageError("beta must lie in [1/(d+1), 1)")
    if not 1 <= d < m:
        raise UsageError("need 1 <= d < m")
    l = beta * d / 2
    lc, lf = ceil_rational(l), floor_rational(l)
    enumerated = None
    if enumerate_degree:
        fam = polynomial_design(DesignSpec(m, d))
        enumerated = design_degree(fam, lc)
    return DesignBound(
        m=m,
        d=d,
        beta=beta,
        factor=(1 - beta) * Fraction(m, d),
        l=l,
        bound_ceil=m**lc,
        bound_floor=m**lf,
        degree_ceil=m ** (d - lc),
        enumerated_degree=enumerated,
    )


def matching_bound(m: int, k: int, r: Fraction) -> MatchingBound:
    r = Fraction(r)
    if r < 1 or m < 1 or k < 2:
        raise UsageError("need r >= 1, m >= 1, k >= 2")
    d = ceil_rational(Fraction(m, 3) / r)
    if 2 * d > m:
        raise UsageError("r too small: 2*ceil(m/3r) exceeds m")
    bound = Fraction(comb(2 * d, d) ** (k - 1), comb(m, 2 * d))
    return MatchingBound(m, k, r, d, bound)


def counting_bound(n: int, t) -> CountingBound:
    """Compare the circuit count 2^t (t+n)^(2t) with the matroid count.

    Rational t is truncated to an integer.  The comparison
    log2 L < log2 M is decided exactly as L^n < 2^C(n, n/2).
    """
    t = floor_rational(Fraction(t))
    if n < 2 or t < 1:
        raise UsageError("need n >= 2 and t >= 1")
    m = n // 2
    big_l = 2**t * (t + n) ** (2 * t)
    exponent = comb(n, m)
    fewer = big_l**n < 2**exponent
    return CountingBound(
        n=n,
        t=t,
        circuit_count_log2=t + 2 * t * log2(t + n),
        matroid_count_log2=Fraction(exponent, n),
        strictly_fewer_circuits=fewer,
    )
