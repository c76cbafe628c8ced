"""Fourier-Motzkin elimination: an independent oracle for LP verdicts.

`fm_feasible` decides a system of linear inequalities by eliminating
one variable at a time.  It shares no code with the rational simplex,
so it can check the library's feasibility verdicts; it blows up beyond
a dozen variables, which is all the tests need.

`fm_cross_check()` wraps the `troplab.certify.lp_feasible` binding,
which every certify function calls, and replays each verdict on at most
FM_GENERATOR_LIMIT generators through the oracle.  A disagreement raises
InternalCheck at the call that produced it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from troplab import certify
from troplab.errors import GuardExceeded, InternalCheck

FM_ROWS = 200_000           # intermediate rows before elimination gives up
FM_GENERATOR_LIMIT = 12


def _normalize(coeffs, rhs):
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    denom = denom * rhs.denominator // gcd(denom, rhs.denominator)
    ints = [int(c * denom) for c in coeffs] + [int(rhs * denom)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def fm_feasible(rows, nvars: int) -> bool:
    """Exact feasibility of {x : coeffs . x >= rhs for every row}.

    Rows are (coeffs, rhs) pairs over `nvars` free variables
    (nonnegativity, if wanted, must be passed as explicit rows).
    Eliminates one variable at a time, smallest pos*neg count first.
    """
    system = {}
    for coeffs, rhs in rows:
        key, r = _normalize([Fraction(c) for c in coeffs], Fraction(rhs))
        system[key] = max(system.get(key, r), r)

    remaining = list(range(nvars))
    while remaining:
        items = list(system.items())
        for key, rhs in items:
            if all(c == 0 for c in key) and rhs > 0:
                return False
        best_var, best_score = None, None
        for v in remaining:
            pos = sum(1 for key, _ in items if key[v] > 0)
            neg = sum(1 for key, _ in items if key[v] < 0)
            score = pos * neg - pos - neg
            if best_score is None or score < best_score:
                best_var, best_score = v, score
        v = best_var
        remaining.remove(v)

        pos, neg, zero = [], [], {}
        for key, rhs in items:
            if key[v] > 0:
                pos.append((key, rhs))
            elif key[v] < 0:
                neg.append((key, rhs))
            else:
                zero[key] = max(rhs, zero.get(key, rhs))
        system = zero
        for pkey, prhs in pos:
            for nkey, nrhs in neg:
                a, b = pkey[v], -nkey[v]
                coeffs = [
                    Fraction(b * pc + a * nc) for pc, nc in zip(pkey, nkey)
                ]
                rhs = Fraction(b * prhs + a * nrhs)
                key, r = _normalize(coeffs, rhs)
                if any(key):
                    system[key] = max(system.get(key, r), r)
                elif r > 0:
                    return False
                if len(system) > FM_ROWS:
                    raise GuardExceeded("Fourier-Motzkin row guard exceeded")

    return all(rhs <= 0 for rhs in system.values())


def _support(vec):
    return frozenset(i for i, c in enumerate(vec) if c)


def dominance_rows(query):
    """FM rows for a dominance query, or None when it is not replayed.

    The variables are the multipliers of the query's admissible
    generators (distinct, sorted, support-filtered for "above" and tight
    queries); the rows restrict to supp(u).  Queries with no admissible
    generator, or with more than FM_GENERATOR_LIMIT both before and after
    filtering, are not replayed.
    """
    u = tuple(Fraction(c) for c in query.target)
    usupp = _support(u)
    gens = sorted(set(tuple(v) for v in query.generators))
    if query.tight:
        gens = [v for v in gens if _support(v) == usupp]
    elif query.direction == "above":
        gens = [v for v in gens if _support(v) <= usupp]
    if not gens or (len(query.generators) > FM_GENERATOR_LIMIT
                    and len(gens) > FM_GENERATOR_LIMIT):
        return None
    m = len(gens)
    rows = []
    for coord in sorted(usupp):
        coeffs = [Fraction(v[coord]) for v in gens]
        if query.direction == "below":
            rows.append((coeffs, u[coord]))
        else:
            rows.append(([-c for c in coeffs], -u[coord]))
    rows.append(([Fraction(1)] * m, Fraction(1)))
    rows.append(([Fraction(-1)] * m, Fraction(-1)))
    rows += [([Fraction(int(i == j)) for j in range(m)], Fraction(0)) for i in range(m)]
    return rows, m


@contextmanager
def fm_cross_check():
    """Replay small lp_feasible verdicts through Fourier-Motzkin.

    Yields a dict whose "checked" entry counts the replays made inside
    the block.
    """
    stats = {"checked": 0}
    decide = certify.lp_feasible

    def checked(query):
        cert = decide(query)
        replay = dominance_rows(query)
        if replay is not None:
            stats["checked"] += 1
            if fm_feasible(*replay) != cert.feasible:
                raise InternalCheck(
                    f"Fourier-Motzkin oracle disagrees with simplex on {query}"
                )
        return cert

    certify.lp_feasible = checked
    try:
        yield stats
    finally:
        certify.lp_feasible = decide
