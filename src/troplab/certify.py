"""Exact decision procedures for approximation factors and degrees.

The primitive is a dominance query: does the target vector u lie below
(u <= c) or above (u >= c) some convex combination c of a finite
generator set?  Everything else reduces to it:

* a (max,+) circuit r-approximates the maximization problem on A iff
  every produced vector lies below conv(A) and (1/r)A lies below
  conv(B);
* a (min,+) circuit r-approximates the minimization problem on A iff
  every produced vector lies above conv(A) and rA lies above conv(B);
  for 0-1 antichains A this tightens to pointwise domination plus
  support-matching combinations;
* the semantic degree of a monotone boolean circuit is the least r
  with rA tightly above conv(B), computed minterm by minterm.

Every query, feasibility or scale, is one LP shape (_combination_lp):
convex multipliers over the distinct projections of the admissible
generators onto supp(u); a scale LP, read for its optimum only, keeps
just the undominated projections.  Support filtering is mandatory for
"above" and tight queries; a single-generator dominance fast path,
comparing ints once the target's denominators are cleared, answers
before the exact simplex runs.  A tight filter is one lookup in the
generator set's mask index (VectorSet.with_support).  An "above"
query filters as it scans: the fast path takes the first admissible
generator the target dominates, and the full admissible list is built
only when no generator does.  A "below" query first narrows that path
by bitmask: generators are nonnegative and den > 0, so u_num <= den * v
at a coordinate where u_num > 0 forces v > 0 there, whatever the sign
of u elsewhere; only generators whose support covers the target's
positive support are compared entry by entry, and the first one that
dominates is the one a full scan would find.  When the fast path
misses, a feasibility LP meets a counting bound before the simplex
(see _combination_lp): the target's sum over its support refutes the
LP when no column's sum can reach it, and the all-ones weighting on
that support is then the Farkas witness.  Every returned witness
is re-verified by direct arithmetic; the test suite additionally
replays small verdicts through an independent Fourier-Motzkin oracle.
Each query clears its target's denominators and computes its support
once, and the re-verification reuses both; a query that reaches the
counting bound clears them once more there.

A generator set is a VectorSet: sorted, deduplicated, arity-checked
nonnegative integer vectors that keep their support bitmasks
(circuits.support) once computed.  _certify, exact_factor and
semantic_degree pass the feasible set and the produced set themselves
as DominanceQuery.generators, and the produced set is cached on its
circuit, so sorting and supports are paid once per set, not once per
call or query; support filters and certificate checks compare those
masks, and tight filters, bounded_copy_checks and
arithmetic_witness_check look vectors up by mask.  Whether a support
contains some support of a set (exact_factor's tight validity check,
arithmetic_witness_check's cover test) is decided by one kernel,
families.cover_test.  Each query still goes through the module-level
lp_feasible binding, one call per query, so a wrapper installed on
that binding sees every query.

Circuits with constant inputs are certified through their constant-free
core (strip_constants is applied up front): eliminating constants
preserves any approximation factor the original circuit achieves, so
the core is the right object to certify, and a circuit whose constants
shift its values never approximates a problem whose feasible set
excludes the all-zero solution in the first place.  A constant-free
circuit is its own core, so the produced set cached on it serves
exact_factor, certify_min and boolean_bound_check alike.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ge, itemgetter, le

from .circuits import (
    ARITHMETIC,
    BOOLEAN,
    MAXPLUS,
    MINPLUS,
    Circuit,
    VectorSet,
    convert,
    produced_set,
    strip_constants,
    support,
)
from .errors import InternalCheck, UsageError
from .families import SetFamily, cover_test, is_antichain, similar
from .rationals import clear_denominators
from .simplex import INFEASIBLE, OPTIMAL, LPResult, solve_lp

_ONE = Fraction(1)  # the multiplier of a pointwise certificate


@dataclass(frozen=True)
class DominanceQuery:
    """Does u lie below/above some convex combination of the generators?

    direction "below" asks for u <= c, "above" for u >= c.  With
    tight=True only generators whose support equals supp(u) are used.
    The generators are a VectorSet, used as it is; plain vectors are
    wrapped in one here, so they must be nonnegative integers.
    """

    target: tuple
    generators: VectorSet
    direction: str
    tight: bool = False

    def __post_init__(self):
        if self.direction not in ("below", "above"):
            raise UsageError(f"direction must be below/above, got {self.direction!r}")
        gens = self.generators
        if not gens:
            raise UsageError("empty generator set")
        if not isinstance(gens, VectorSet):
            gens = [tuple(v) for v in gens]
            if any(len(v) != len(gens[0]) for v in gens):
                raise UsageError("generator arity mismatch")
            object.__setattr__(self, "generators", VectorSet(len(gens[0]), gens))
        if len(self.target) != self.generators.n:
            raise UsageError("generator arity mismatch")


@dataclass(frozen=True)
class Certificate:
    """Verdict plus a re-verifiable witness.

    For feasible verdicts `coefficients` lists (generator, multiplier)
    pairs summing to 1 whose combination dominates/is dominated by the
    target.  For infeasible verdicts the target itself is the witness
    (no multipliers exist for it).
    """

    feasible: bool
    target: tuple
    direction: str
    coefficients: tuple | None = None
    note: str = ""


def verify_certificate(cert: Certificate, query: DominanceQuery) -> bool:
    """Re-verify a feasible certificate by direct exact arithmetic.

    Checks that the multipliers are nonnegative, sum to 1 and sit on
    generators of the query (support-matching when it is tight), and
    that their combination dominates or is dominated by the target.
    Denominators are cleared once, so every comparison is between ints.
    """
    nums, den = clear_denominators(query.target)
    return _verified(cert, query, nums, den, support(nums))


def _verified(cert, query, u_nums, u_den, umask):
    """verify_certificate on a target already cleared to u_nums / u_den."""
    if not cert.feasible:
        return True
    coeffs = cert.coefficients
    if coeffs is None:
        return False
    masks = query.generators.masks
    for vec, _ in coeffs:
        if vec not in masks or (query.tight and masks[vec] != umask):
            return False
    lams, lam_den = clear_denominators([lam for _, lam in coeffs])
    if not lams or min(lams) < 0 or sum(lams) != lam_den:
        return False
    # u_i <= sum(lam * g_i) iff u_num_i * lam_den <= u_den * sum(lam_num * g_i)
    comb = None
    for (vec, _), lam in zip(coeffs, lams):
        term = vec if lam == 1 else list(map(lam.__mul__, vec))
        comb = term if comb is None else list(map(add, comb, term))
    if lam_den != 1:
        u_nums = [u * lam_den for u in u_nums]
    if u_den != 1:
        comb = [u_den * c for c in comb]
    return all(map(le if query.direction == "below" else ge, u_nums, comb))


def _admissible(vs, umask, tight):
    """Generators that may enter a combination above (or tight to) supp(u).

    An "above" combination may not use a coordinate outside supp(u); a
    tight one must use exactly supp(u), which is one lookup in the mask
    index.  umask is supp(u) as a bitmask.  Both keep sorted order.
    """
    if tight:
        return vs.with_support(umask)
    return [v for v, m in vs.masks.items() if m | umask == umask]


def _undominated(keys, below):
    """The keys no other key dominates (>= everywhere when below, else <=).

    A dominator has a strictly larger (smaller) coordinate sum, so
    walking the keys by sum meets it first; comparing against the keys
    already kept suffices, since dominance is transitive.  Sorted order
    is kept.
    """
    cmp = ge if below else le
    kept = []
    for key in sorted(keys, key=sum, reverse=below):
        if not any(all(map(cmp, k, key)) for k in kept):
            kept.append(key)
    return sorted(kept)


def _combination_lp(target, gens, below, scaled):
    """The one LP shape behind every dominance and factor question.

    Columns are the sorted distinct projections of gens onto supp(target),
    each standing for the first generator in gens that projects to it;
    their multipliers sum to 1.  Each support coordinate gives one row:
    the combination is >= the target when `below`, <= it otherwise.  With
    `scaled` a last column t multiplies the target and the LP optimizes
    it (max when below, min otherwise); without, it is a feasibility LP.
    A scaled LP keeps only the undominated columns: a column that
    another dominates (is below it when `below`, above it otherwise) can
    hand its multiplier to the dominating one without making t worse, so
    the optimum is the same, and scale LPs are read for their objective
    only.  A feasibility LP keeps every column, since its multipliers
    are the printed certificate.  Returns the column representatives and
    the LP result.

    A feasibility LP first meets a counting bound.  Adding its support
    rows with weight 1 says the target's sum over S = supp(target) is at
    most (below) or at least (above) a convex combination of the column
    sums over S.  So a target sum above the largest column sum (below
    the smallest, for "above") refutes the LP without the simplex, with
    the all-ones weighting on S as the Farkas witness, and the result is
    the solver's infeasible one.  The sums are compared as ints, on the
    target cleared to nums / den.
    """
    coords = [i for i, c in enumerate(target) if c]
    # itemgetter() raises and itemgetter(i) returns a scalar, not a tuple
    project = (itemgetter(*coords) if len(coords) > 1
               else lambda v: tuple(v[i] for i in coords))
    # built from the reversed generators, so each key keeps its first one
    backwards = gens[::-1]
    reps = dict(zip(map(project, backwards), backwards))
    keys = _undominated(reps, below) if scaled else sorted(reps)
    columns = [reps[key] for key in keys]
    if not scaled:
        nums, den = clear_denominators(target)
        total = sum(nums)
        if (total > den * max(map(sum, keys)) if below
                else total < den * min(map(sum, keys))):
            return columns, LPResult(INFEASIBLE)
    rel = ">=" if below else "<="
    constraints = []
    for row, coord in zip(zip(*keys), coords):
        ai = target[coord]
        if scaled:
            constraints.append((row + (-ai,), rel, 0))
        else:
            constraints.append((row, rel, ai))
    extra = [0] if scaled else []
    constraints.append(([1] * len(keys) + extra, "==", 1))
    objective = [0] * len(keys) + ([1] if scaled else [])
    return columns, solve_lp(objective, constraints, maximize=scaled and below)


def lp_feasible(query: DominanceQuery) -> Certificate:
    """Decide a dominance query exactly; witnesses are re-verified."""
    nums, den = clear_denominators(query.target)
    umask = support(nums)
    below = query.direction == "below"
    vs = query.generators
    gens = None  # the LP's generators, built only if the fast path misses
    if query.tight:
        gens = candidates = vs.with_support(umask)
        if not gens:
            return Certificate(False, query.target, query.direction,
                               note="empty support filter")
    elif below:
        # u_num <= den * v makes v nonzero wherever u_num > 0, so only
        # generators covering that mask can dominate; masks is in sorted
        # order, so the first hit is unchanged.
        pos = support([x > 0 for x in nums])
        candidates = (v for v, m in vs.masks.items() if m & pos == pos)
    else:
        candidates = (v for v, m in vs.masks.items() if m | umask == umask)

    # Pointwise fast path on ints: u <= v iff u_num <= den * v.
    cmp = le if below else ge
    if den == 1:
        hit = next((v for v in candidates if all(map(cmp, nums, v))), None)
    else:
        hit = next((v for v in candidates
                    if all(map(cmp, nums, map(den.__mul__, v)))), None)
    if hit is not None:
        cert = Certificate(True, query.target, query.direction,
                           ((hit, _ONE),), note="pointwise")
    else:
        if gens is None:
            gens = vs.sorted_vectors() if below else _admissible(vs, umask, False)
        if not gens:
            return Certificate(False, query.target, query.direction,
                               note="no generators inside the target support")
        reps, result = _combination_lp(query.target, gens, below, scaled=False)
        if result.status == OPTIMAL:
            coeffs = tuple(
                (rep, lam) for rep, lam in zip(reps, result.solution) if lam != 0
            )
            cert = Certificate(True, query.target, query.direction, coeffs)
        else:
            cert = Certificate(False, query.target, query.direction)
    if not _verified(cert, query, nums, den, umask):
        raise InternalCheck("certificate failed re-verification")
    return cert


# ---------------------------------------------------------------------------
# Certification bundles


@dataclass
class CertificateBundle:
    verdict: bool
    sense: str
    factor: Fraction
    produced: VectorSet
    produced_side: tuple  # (vector, Certificate) for B against conv(A)
    feasible_side: tuple  # (vector, Certificate) for scaled A against conv(B)

    def failures(self):
        return [
            (v, c)
            for v, c in list(self.produced_side) + list(self.feasible_side)
            if not c.feasible
        ]


def _require_problem_set(a: VectorSet):
    if len(a) == 0:
        raise UsageError("empty feasible-solution set")
    zero = (0,) * a.n
    if zero in a:
        raise UsageError("the all-zero vector is not a feasible solution")


def _core_produced(circuit: Circuit, expected: str) -> VectorSet:
    if circuit.semiring != expected:
        raise UsageError(f"expected a {expected} circuit, got {circuit.semiring}")
    return produced_set(strip_constants(circuit))


def is_zero_one_antichain(a: VectorSet) -> bool:
    if not a.is_zero_one():
        return False
    # distinct supports can nest only when the inner one has fewer bits
    sups = sorted(a.supports(), key=int.bit_count)
    counts = [s.bit_count() for s in sups]
    return not any(
        s & t == s for s, k in zip(sups, counts) for t in sups[bisect_right(counts, k):]
    )


def _certify(circuit: Circuit, a: VectorSet, r: Fraction, sense: str) -> CertificateBundle:
    r = Fraction(r)
    if r < 1:
        raise UsageError("approximation factors are >= 1")
    _require_problem_set(a)
    b = _core_produced(circuit, MAXPLUS if sense == "max" else MINPLUS)
    direction = "below" if sense == "max" else "above"
    scale = 1 / r if sense == "max" else r
    tight = sense == "min" and is_zero_one_antichain(a)
    produced_side = tuple(
        (v, lp_feasible(DominanceQuery(v, a, direction))) for v in b
    )
    feasible_side = tuple(
        (v, lp_feasible(DominanceQuery(
            tuple(c * scale for c in v), b, direction, tight=tight)))
        for v in a
    )
    verdict = all(c.feasible for _, c in produced_side) and all(
        c.feasible for _, c in feasible_side
    )
    return CertificateBundle(verdict, sense, r, b, produced_side, feasible_side)


def certify_max(circuit: Circuit, a: VectorSet, r: Fraction) -> CertificateBundle:
    """Does the circuit's core approximate max-on-A within factor r?

    True iff every produced vector lies below conv(A) and (1/r)A lies
    below conv(B); both sides carry per-vector certificates.
    """
    return _certify(circuit, a, r, "max")


def certify_min(circuit: Circuit, a: VectorSet, r: Fraction) -> CertificateBundle:
    """Does the circuit's core approximate min-on-A within factor r?

    General sets use the convex-hull conditions both ways; 0-1
    antichains use the cheaper equivalent: pointwise domination of A by
    B plus support-matching (tight) combinations below rA.
    """
    return _certify(circuit, a, r, "min")


# ---------------------------------------------------------------------------
# Optimal factors


@dataclass(frozen=True)
class FactorResult:
    status: str  # "rational" | "infinite" | "invalid"
    value: Fraction | None = None
    witness: tuple | None = None  # vector attaining/blocking the factor


def _vector_factor(a_vec, b: VectorSet, sense, tight):
    """Least factor for one feasible vector against the produced set.

    sense "max": 1/t for the largest t with t*a below conv(b).
    sense "min": the least r with some admissible (tight or
    support-filtered) combination <= r*a.  None when no finite factor
    exists.
    """
    if sense == "max":
        gens = b.sorted_vectors()
    else:
        gens = _admissible(b, support(a_vec), tight)
        if not gens:
            return None
    _, result = _combination_lp(a_vec, gens, sense == "max", scaled=True)
    if result.status != OPTIMAL:
        raise InternalCheck(f"scale LP unexpectedly {result.status}")
    if sense == "min":
        return result.objective
    return 1 / result.objective if result.objective else None


def exact_factor(circuit: Circuit, a: VectorSet, sense: str) -> FactorResult:
    """Least certified approximation factor of the circuit's core on A.

    "invalid" when the one-sided validity condition fails (the circuit
    is no approximator at any factor); "infinite" when some feasible
    vector is unreachable by any admissible combination (below the
    boolean bound, no finite factor exists).
    """
    if sense not in ("min", "max"):
        raise UsageError("sense must be 'min' or 'max'")
    _require_problem_set(a)
    b = _core_produced(circuit, MAXPLUS if sense == "max" else MINPLUS)
    direction = "below" if sense == "max" else "above"
    tight = sense == "min" and is_zero_one_antichain(a)

    if tight:
        # on 0-1 antichains validity is pointwise domination: v >= a iff
        # supp(v) contains some supp(a), so each distinct support is tested
        # once and the witness is the least vector with a failed support
        covers = cover_test(a.supports())
        failed = {m for m in b.supports() if not covers(m)}
        bad = next((v for v, m in b.masks.items() if m in failed), None)
    else:
        bad = next((v for v in b
                    if not lp_feasible(DominanceQuery(v, a, direction)).feasible), None)
    if bad is not None:
        return FactorResult("invalid", witness=bad)
    best = None
    witness = None
    for av in a:
        factor = _vector_factor(av, b, sense, tight)
        if factor is None:
            return FactorResult("infinite", witness=av)
        if best is None or factor > best:
            best, witness = factor, av
    if best < 1:
        raise InternalCheck(f"{sense}imization factor below 1 despite validity")
    return FactorResult("rational", best, witness)


# ---------------------------------------------------------------------------
# Semantic degree and friends


def _minterm_set_ok(a: VectorSet) -> bool:
    return len(a) > 0 and 0 not in a.supports() and is_zero_one_antichain(a)


def boolean_versions_agree(b: VectorSet, a: VectorSet) -> bool:
    """Do b and a define the same monotone boolean function, at any arity?

    Two monotone functions are equal exactly when their minimal supports
    cover each other, so this is `similar`: every support of each set
    contains a support of the other.
    """
    if a.n != b.n:
        raise UsageError("arity mismatch")
    return similar(a, b)


def semantic_degree(circuit: Circuit, a: VectorSet) -> Fraction:
    """Least r with rA tightly above conv(B), maximized over minterms.

    The circuit must compute the monotone function whose minterm set is
    A; then every minterm admits support-matching produced vectors and
    the per-minterm LP optimum is attained and rational.
    """
    if circuit.semiring != BOOLEAN:
        raise UsageError("semantic degree applies to boolean circuits")
    if not _minterm_set_ok(a):
        raise UsageError("A must be a nonempty 0-1 antichain of minterms")
    b = produced_set(circuit)
    if not boolean_versions_agree(b, a):
        raise UsageError("circuit does not compute the boolean function of A")
    degree = Fraction(1)
    for av in a:
        if av in b:
            continue  # that minterm is produced as-is: its contribution is 1
        r = _vector_factor(av, b, "min", tight=True)
        if r is None:
            raise InternalCheck("similarity guarantees a support-matching vector")
        degree = max(degree, r)
    return degree


@dataclass(frozen=True)
class BoundedCopyReport:
    r: Fraction
    sufficient_all: bool          # every minterm has an r-bounded copy
    best_copy_heights: tuple      # (minterm, least max-entry of a copy or None)
    necessary_bound: tuple        # (minterm, r|a|-|a|+r)
    necessary_violations: tuple   # minterms whose best copy exceeds the bound


def bounded_copy_checks(a: VectorSet, b: VectorSet, r: Fraction) -> BoundedCopyReport:
    """Copy-based degree bounds: sufficiency at r, necessity at r|a|-|a|+r."""
    r = Fraction(r)
    if not _minterm_set_ok(a):
        raise UsageError("A must be a nonempty 0-1 antichain of minterms")
    heights = []
    bounds = []
    violations = []
    sufficient = True
    for av, am in a.masks.items():
        copies = b.with_support(am)
        best = min(map(max, copies)) if copies else None
        heights.append((av, best))
        size = sum(av)
        limit = r * size - size + r
        bounds.append((av, limit))
        if best is None or best > r:
            sufficient = False
        if best is None or best > limit:
            violations.append(av)
    return BoundedCopyReport(
        r, sufficient, tuple(heights), tuple(bounds), tuple(violations)
    )


def boolean_bound_check(circuit: Circuit, a: VectorSet) -> bool:
    """Boolean version of a certified (min,+) circuit must define f_A."""
    if circuit.semiring != MINPLUS:
        raise UsageError("boolean_bound_check applies to minplus circuits")
    core = strip_constants(circuit)
    return boolean_versions_agree(produced_set(core), a)


def arithmetic_witness_check(circuit: Circuit, family: SetFamily, r: Fraction) -> bool:
    """Monomial support-cover plus r-bounded same-support monomials.

    When both hold, the (min,+) conversion provably certifies at r;
    that implication is asserted on the spot.
    """
    r = Fraction(r)
    if circuit.semiring != ARITHMETIC:
        raise UsageError("expected an arithmetic circuit")
    if not is_antichain(family):
        raise UsageError("the family must be an antichain")
    b = produced_set(circuit)

    covers = all(map(cover_test(family.masks), b.supports()))
    has_copies = all(
        any(max(v) <= r for v in b.with_support(m))
        for m in family.masks
    )
    ok = covers and has_copies
    if ok:
        bundle = certify_min(convert(circuit, MINPLUS), family.characteristic_vectors(), r)
        if not bundle.verdict:
            raise InternalCheck(
                "arithmetic witness held but the minplus conversion failed to certify"
            )
    return ok
