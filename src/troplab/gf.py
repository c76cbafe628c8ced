"""Small prime-power fields GF(p^k) on element codes, with canonical moduli.

An element of GF(p^k) is its code: the int in range(p^k) whose base-p
digits, least significant first, are its coefficients as a polynomial
over GF(p) reduced modulo the field's modulus.  Zero is 0, one is 1, and
range(order) lists the elements in the canonical order that the
generators index by.  `Field.add`, `Field.mul` and `Field.coeffs` work on
codes; nothing checks that a code lies in range(order).

The canonical modulus of (p, k) is the first monic irreducible of degree
k when the monics are enumerated by the code of their lower coefficients,
0 upward, so equal (p, k) always means bit-identical arithmetic across
runs.  `canonical_modulus` runs that one deterministic search on every
call and keeps nothing: about 0.06 ms for GF(2^6), 2.5 ms for GF(2^13)
(the largest Sidon sets) and 8 ms for GF(2^16) at the element guard.

Polynomials are little-endian coefficient tuples with the leading
coefficient last; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import guards
from .errors import GuardExceeded, UsageError

SUPPORTED_PRIMES = (2, 3, 5, 7)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        for j in range(dm + 1):
            a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
        a[i] = 0
    return _trim(a)


def _int_to_poly(code, p):
    coeffs = []
    while code:
        code, digit = divmod(code, p)
        coeffs.append(digit)
    return tuple(coeffs)


def _poly_to_int(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _monic(code, degree, p):
    """The monic polynomial of the given degree whose lower coefficients
    are the base-p digits of code."""
    low = _int_to_poly(code, p)
    return low + (0,) * (degree - len(low)) + (1,)


def _is_irreducible(f, p):
    """Trial division of f (degree >= 1) by every monic of degree <= deg/2."""
    degree = len(f) - 1
    return all(_poly_mod(f, _monic(code, d, p), p)
               for d in range(1, degree // 2 + 1) for code in range(p**d))


def canonical_modulus(p: int, k: int):
    if p not in SUPPORTED_PRIMES:
        raise UsageError(f"unsupported characteristic {p}; supported: {SUPPORTED_PRIMES}")
    if k < 1:
        raise UsageError("extension degree must be >= 1")
    limit = guards.current().field_order
    if p**k > limit:
        raise GuardExceeded(f"field GF({p}^{k}) exceeds the {limit}-element guard")
    # irreducibles of every degree exist, so the search always returns
    return next(f for f in (_monic(code, k, p) for code in range(p**k))
                if _is_irreducible(f, p))


@dataclass(frozen=True)
class Field:
    """Descriptor (p, k, canonical modulus) for GF(p^k); elements are codes."""

    p: int
    k: int
    modulus: tuple

    @staticmethod
    def of(p: int, k: int = 1) -> "Field":
        return Field(p, k, canonical_modulus(p, k))

    @staticmethod
    def of_order(q: int) -> "Field":
        """Field of the given prime-power order."""
        for p in SUPPORTED_PRIMES:
            for k in range(1, q.bit_length() + 1):
                if p**k == q:
                    return Field.of(p, k)
        raise UsageError(f"{q} is not a supported prime power")

    @property
    def order(self) -> int:
        return self.p**self.k

    def coeffs(self, code: int) -> tuple:
        """The k coefficients of element `code`, constant term first."""
        poly = _int_to_poly(code, self.p)
        return poly + (0,) * (self.k - len(poly))

    def add(self, a: int, b: int) -> int:
        digits = [(x + y) % self.p for x, y in zip(self.coeffs(a), self.coeffs(b))]
        return _poly_to_int(digits, self.p)

    def mul(self, a: int, b: int) -> int:
        p = self.p
        prod = _poly_mul(_int_to_poly(a, p), _int_to_poly(b, p), p)
        return _poly_to_int(_poly_mod(prod, self.modulus, p), p)


def power_map_is_bijective(field: Field, exponent: int) -> bool:
    """Exhaustively test whether x -> x^exponent permutes the field."""
    if exponent < 0:
        raise UsageError("inverse of zero")  # x^exponent is undefined at x = 0
    seen = set()
    for x in range(field.order):
        power, base, e = 1, x, exponent
        while e:
            if e & 1:
                power = field.mul(power, base)
            base = field.mul(base, base)
            e >>= 1
        seen.add(power)
    return len(seen) == field.order
