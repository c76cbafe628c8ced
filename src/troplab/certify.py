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
generators onto supp(u).  Support filtering is mandatory for "above"
and tight queries; a single-generator dominance fast path, comparing
ints once the target's denominators are cleared, answers before the
exact simplex runs.  Every returned witness is re-verified
by direct arithmetic; the test suite additionally replays small
verdicts through an independent Fourier-Motzkin oracle.

Each call of _certify, exact_factor and semantic_degree sorts, dedups
and arity-checks its generator sets once, into GeneratorTables that
carry every generator's support bitmask (circuits.support); support
filters and certificate checks compare those masks.  Each query still
goes through the module-level lp_feasible binding, one call per query,
so a wrapper installed on that binding sees every query.

Circuits with constant inputs are certified through their constant-free
core (strip_constants is applied up front): eliminating constants
preserves any approximation factor the original circuit achieves, so
the core is the right object to certify, and a circuit whose constants
shift its values never approximates a problem whose feasible set
excludes the all-zero solution in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from . import guards
from .errors import InternalCheck, UsageError
from .families import SetFamily, boolean_function_of, is_antichain, similar
from .rationals import clear_denominators
from .simplex import OPTIMAL, solve_lp


class GeneratorTable(tuple):
    """Sorted distinct generators of one arity `n`, with supports in `masks`.

    A certify call builds one table per generator set and passes it as
    DominanceQuery.generators to every query, so sorting, dedup, the
    arity check and supports are computed once per call, not once per
    query.
    """

    def __new__(cls, vectors):
        table = super().__new__(cls, sorted(set(map(tuple, vectors))))
        table.n = len(table[0]) if table else 0
        if any(len(v) != table.n for v in table):
            raise UsageError("generator arity mismatch")
        table.masks = {v: support(v) for v in table}
        return table


@dataclass(frozen=True)
class DominanceQuery:
    """Does u lie below/above some convex combination of the generators?

    direction "below" asks for u <= c, "above" for u >= c.  With
    tight=True only generators whose support equals supp(u) are used.
    The generators are any vectors or a GeneratorTable of them; plain
    vectors are turned into a table here.
    """

    target: tuple
    generators: tuple
    direction: str
    tight: bool = False

    def __post_init__(self):
        if self.direction not in ("below", "above"):
            raise UsageError(f"direction must be below/above, got {self.direction!r}")
        if not self.generators:
            raise UsageError("empty generator set")
        if not isinstance(self.generators, GeneratorTable):
            object.__setattr__(self, "generators", GeneratorTable(self.generators))
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

    def combination(self):
        if self.coefficients is None:
            return None
        n = len(self.target)
        acc = [Fraction(0)] * n
        for vec, lam in self.coefficients:
            for i, c in enumerate(vec):
                acc[i] += lam * c
        return tuple(acc)


def verify_certificate(cert: Certificate, query: DominanceQuery) -> bool:
    """Re-verify a feasible certificate by direct exact arithmetic.

    Checks that the multipliers are nonnegative, sum to 1 and sit on
    generators of the query (support-matching when it is tight), and
    that their combination dominates or is dominated by the target.
    Denominators are cleared once, so every comparison is between ints.
    """
    if not cert.feasible:
        return True
    if cert.coefficients is None:
        return False
    umask = support(query.target)
    masks = query.generators.masks
    for vec, _ in cert.coefficients:
        if vec not in masks or (query.tight and masks[vec] != umask):
            return False
    lams, lam_den = clear_denominators([lam for _, lam in cert.coefficients])
    if any(lam < 0 for lam in lams) or sum(lams) != lam_den:
        return False
    # u_i <= sum(lam * g_i) iff u_num_i * lam_den <= u_den * sum(lam_num * g_i)
    u_nums, u_den = clear_denominators(query.target)
    below = query.direction == "below"
    vecs = [vec for vec, _ in cert.coefficients]
    for i, u in enumerate(u_nums):
        comb = u_den * sum(lam * vec[i] for vec, lam in zip(vecs, lams))
        if u * lam_den > comb if below else u * lam_den < comb:
            return False
    return True


def _admissible(table, umask, tight):
    """Generators that may enter a combination above (or tight to) supp(u).

    An "above" combination may not use a coordinate outside supp(u); a
    tight one must use exactly supp(u).  umask is supp(u) as a bitmask.
    """
    if tight:
        return [v for v, m in table.masks.items() if m == umask]
    return [v for v, m in table.masks.items() if m | umask == umask]


def _combination_lp(target, gens, below, scaled):
    """The one LP shape behind every dominance and factor question.

    Columns are the sorted distinct projections of gens onto supp(target),
    each standing for the first generator in gens that projects to it;
    their multipliers sum to 1.  Each support coordinate gives one row:
    the combination is >= the target when `below`, <= it otherwise.  With
    `scaled` a last column t multiplies the target and the LP optimizes
    it (max when below, min otherwise); without, it is a feasibility LP.
    Returns the column representatives and the LP result.
    """
    coords = [i for i, c in enumerate(target) if c]
    reps = {}
    for v in gens:
        reps.setdefault(tuple(v[i] for i in coords), v)
    keys = sorted(reps)
    rel = ">=" if below else "<="
    constraints = []
    for ci, coord in enumerate(coords):
        row = [key[ci] for key in keys]
        ai = target[coord]
        if scaled:
            constraints.append((row + [-ai], rel, 0))
        else:
            constraints.append((row, rel, ai))
    extra = [0] if scaled else []
    constraints.append(([1] * len(keys) + extra, "==", 1))
    objective = [0] * len(keys) + ([1] if scaled else [])
    result = solve_lp(objective, constraints, maximize=scaled and below)
    return [reps[key] for key in keys], result


def lp_feasible(query: DominanceQuery) -> Certificate:
    """Decide a dominance query exactly; witnesses are re-verified."""
    nums, den = clear_denominators(query.target)
    below = query.direction == "below"
    gens = query.generators
    if query.tight or not below:
        gens = _admissible(gens, support(nums), query.tight)
        if not gens:
            note = ("empty support filter" if query.tight
                    else "no generators inside the target support")
            return Certificate(False, query.target, query.direction, note=note)

    # Pointwise fast path on ints: u <= v iff u_num <= den * v.
    cert = None
    for v in gens:
        if all(x <= den * y for x, y in zip(nums, v)) if below else all(
            x >= den * y for x, y in zip(nums, v)
        ):
            cert = Certificate(True, query.target, query.direction,
                               ((v, Fraction(1)),), note="pointwise")
            break
    if cert is None:
        reps, result = _combination_lp(query.target, gens, below, scaled=False)
        if result.status == OPTIMAL:
            coeffs = tuple(
                (rep, lam) for rep, lam in zip(reps, result.solution) if lam != 0
            )
            cert = Certificate(True, query.target, query.direction, coeffs)
        else:
            cert = Certificate(False, query.target, query.direction)
    if not verify_certificate(cert, query):
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
    sups = list(a.supports())
    return not any(
        s != t and s & t == s for s in sups for t in sups
    )


def _certify(circuit: Circuit, a: VectorSet, r: Fraction, sense: str) -> CertificateBundle:
    r = Fraction(r)
    if r < 1:
        raise UsageError("approximation factors are >= 1")
    _require_problem_set(a)
    b = _core_produced(circuit, MAXPLUS if sense == "max" else MINPLUS)
    gens_a = GeneratorTable(a.vectors)
    gens_b = GeneratorTable(b.vectors)
    direction = "below" if sense == "max" else "above"
    scale = 1 / r if sense == "max" else r
    tight = sense == "min" and is_zero_one_antichain(a)
    produced_side = tuple(
        (v, lp_feasible(DominanceQuery(v, gens_a, direction))) for v in gens_b
    )
    feasible_side = tuple(
        (v, lp_feasible(DominanceQuery(
            tuple(c * scale for c in v), gens_b, direction, tight=tight)))
        for v in gens_a
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


def _vector_factor(a_vec, gens_b: GeneratorTable, sense, tight):
    """Least factor for one feasible vector against the produced set.

    sense "max": 1/t for the largest t with t*a below conv(gens_b).
    sense "min": the least r with some admissible (tight or
    support-filtered) combination <= r*a.  None when no finite factor
    exists.
    """
    if sense == "max":
        gens = gens_b
    else:
        gens = _admissible(gens_b, support(a_vec), tight)
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
    gens_a = GeneratorTable(a.vectors)
    gens_b = GeneratorTable(b.vectors)
    direction = "below" if sense == "max" else "above"
    tight = sense == "min" and is_zero_one_antichain(a)

    for v in gens_b:
        if tight:
            # on 0-1 antichains validity is pointwise domination: v >= a
            # iff supp(a) lies inside supp(v)
            vm = gens_b.masks[v]
            ok = any(am & vm == am for am in gens_a.masks.values())
        else:
            ok = lp_feasible(DominanceQuery(v, gens_a, direction)).feasible
        if not ok:
            return FactorResult("invalid", witness=v)
    best = None
    witness = None
    for av in gens_a:
        factor = _vector_factor(av, gens_b, sense, tight)
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
    """Same boolean function: tables when arity permits, similarity beyond."""
    if a.n != b.n:
        raise UsageError("arity mismatch")
    if a.n <= guards.current().table_variables:
        return boolean_function_of(b) == boolean_function_of(a)
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
    produced = GeneratorTable(b.vectors)
    for av in a.sorted_vectors():
        if tuple(av) in b:
            continue  # that minterm is produced as-is: its contribution is 1
        r = _vector_factor(av, produced, "min", tight=True)
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
    for av in a.sorted_vectors():
        asupp = support(av)
        copies = [max(v) for v in b.sorted_vectors() if support(v) == asupp]
        best = min(copies) if copies else None
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

    covers = all(
        any(m & s == m for m in family.masks) for s in b.supports()
    )
    has_copies = all(
        any(support(v) == m and max(v) <= r for v in b.sorted_vectors())
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
