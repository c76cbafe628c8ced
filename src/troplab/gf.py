"""Small prime-power fields GF(p^k) with fixed canonical moduli.

Elements are coefficient vectors over GF(p) reduced modulo one canonical
monic irreducible polynomial per (p, k), so equal field descriptors mean
bit-identical arithmetic across runs.  The canonical modulus is the
lexicographically first monic irreducible of degree k (coefficient
vectors read little-endian, enumerated by increasing integer code); the
shipped table below covers p in {2, 3, 5, 7}, k <= 6, and the same
deterministic search extends it on demand for larger k (e.g. GF(2^13)
for the Sidon-set constructions) up to the 2^16-element guard.

Polynomials are little-endian coefficient tuples with the leading
coefficient last; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import guards
from .errors import GuardExceeded, UsageError

SUPPORTED_PRIMES = (2, 3, 5, 7)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


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


def _monic_polys(degree, p):
    for code in range(p**degree):
        yield _int_to_poly(code, p) + (0,) * (degree - len(_int_to_poly(code, p))) + (1,)


def _is_irreducible(f, p):
    degree = len(f) - 1
    if degree <= 0:
        return False
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(f, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def _search_modulus(p: int, k: int):
    for code in range(p**k):
        low = _int_to_poly(code, p)
        f = low + (0,) * (k - len(low)) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("unreachable: irreducibles exist for every (p, k)")


# Canonical moduli for p in {2,3,5,7}, k <= 6, as produced by
# _search_modulus; regenerated and compared in the test suite.
CANONICAL_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
}


def canonical_modulus(p: int, k: int):
    if p not in SUPPORTED_PRIMES:
        raise UsageError(f"unsupported characteristic {p}; supported: {SUPPORTED_PRIMES}")
    if k < 1:
        raise UsageError("extension degree must be >= 1")
    limit = guards.current().field_order
    if p**k > limit:
        raise GuardExceeded(f"field GF({p}^{k}) exceeds the {limit}-element guard")
    modulus = CANONICAL_MODULI.get((p, k))
    if modulus is None:
        modulus = _search_modulus(p, k)
    return modulus


@dataclass(frozen=True)
class Field:
    """Descriptor (p, k, canonical modulus) for GF(p^k)."""

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
            if q % p == 0:
                k = 0
                m = q
                while m % p == 0:
                    m //= p
                    k += 1
                if m != 1:
                    break
                return Field.of(p, k)
        raise UsageError(f"{q} is not a supported prime power")

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise UsageError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_int(self, code: int) -> "FieldElement":
        """Element number `code` in the canonical order (base-p digits)."""
        if not 0 <= code < self.order:
            raise UsageError(f"element code {code} out of range for order {self.order}")
        digits = []
        for _ in range(self.k):
            code, d = divmod(code, self.p)
            digits.append(d)
        return FieldElement(self, tuple(digits))

    def elements(self):
        return [self.from_int(code) for code in range(self.order)]

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))


@dataclass(frozen=True)
class FieldElement:
    field: Field
    coeffs: tuple

    def _check_peer(self, other: "FieldElement"):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise UsageError("field elements from different fields")

    def _wrap(self, poly) -> "FieldElement":
        poly = poly + (0,) * (self.field.k - len(poly))
        return FieldElement(self.field, poly)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_peer(other)
        return self._wrap(_poly_add(self.coeffs, other.coeffs, self.field.p))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_peer(other)
        prod = _poly_mul(_trim(self.coeffs), _trim(other.coeffs), self.field.p)
        return self._wrap(_poly_mod(prod, self.field.modulus, self.field.p))

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise UsageError("inverse of zero")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_int(self) -> int:
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.field.p + c
        return code

    def __repr__(self):
        return f"GF({self.field.p}^{self.field.k}):{list(self.coeffs)}"


def power_map_is_bijective(field: Field, exponent: int) -> bool:
    """Exhaustively test whether x -> x^exponent permutes the field."""
    seen = {(e**exponent).coeffs for e in field.elements()}
    return len(seen) == field.order
