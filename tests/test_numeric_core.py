"""Exact scalar substrate: rationals and small prime-power fields."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from troplab.errors import GuardExceeded, UsageError
from troplab.gf import Field, canonical_modulus, power_map_is_bijective
from troplab.rationals import (
    ceil_rational,
    clear_denominators,
    floor_rational,
    format_rational,
    parse_rational,
)

_OPS = ("+", "-", "*", "/")


def rational_arith(a: Fraction, b: Fraction, op: str) -> Fraction:
    """Apply one of ``+ - * /`` to two rationals, exactly.

    Division by zero is an explicit UsageError rather than a
    ZeroDivisionError, so that a caller can report it as a usage problem.
    """
    if op not in _OPS:
        raise UsageError(f"unknown rational operation {op!r}, expected one of {_OPS}")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise UsageError("division by zero")
    return a / b


def test_basic_fraction_arithmetic():
    assert rational_arith(Fraction(1, 2), Fraction(1, 3), "+") == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)
    eps = Fraction(1, 10)
    assert rational_arith(Fraction(1), 1 - eps / 2, "/") == Fraction(20, 19)


def test_clear_denominators():
    ints = [3, 0, 7]
    got = clear_denominators(ints)
    assert got == ([3, 0, 7], 1) and got[0] is not ints
    assert clear_denominators((True, 2)) == ([1, 2], 1)
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    for whole in ([Fraction(1)], [Fraction(4), Fraction(-2), Fraction(0)], [Fraction(2), 3]):
        nums, den = clear_denominators(whole)
        assert (nums, den) == (whole, 1) and all(type(x) is int for x in nums)
    rng = random.Random(63)
    for _ in range(500):
        vals = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
                for _ in range(rng.randint(1, 5))]
        nums, den = clear_denominators(vals)
        assert all(type(x) is int for x in nums)
        assert [Fraction(x, den) for x in nums] == vals
        assert den == lcm(*(Fraction(v).denominator for v in vals))


def test_division_by_zero_is_explicit():
    with pytest.raises(UsageError):
        rational_arith(Fraction(1), Fraction(0), "/")


def test_parse_and_format_round_trip():
    for text in ["3", "5/6", "-7/3", "0"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(UsageError):
        parse_rational("a/b")
    with pytest.raises(UsageError):
        parse_rational("1/0")


def _second_normalization(num: int, den: int):
    # independent lowest-terms routine for cross-checking Fraction
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    return (num // g, den // g) if g else (0, 1)


def test_exactness_against_independent_normalization():
    rng = random.Random(99)
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        op = rng.choice("+-*/")
        if op == "/" and b == 0:
            continue
        got = rational_arith(a, b, op)
        if op == "+":
            raw = (a.numerator * b.denominator + b.numerator * a.denominator,
                   a.denominator * b.denominator)
        elif op == "-":
            raw = (a.numerator * b.denominator - b.numerator * a.denominator,
                   a.denominator * b.denominator)
        elif op == "*":
            raw = (a.numerator * b.numerator, a.denominator * b.denominator)
        else:
            raw = (a.numerator * b.denominator, a.denominator * b.numerator)
        assert (got.numerator, got.denominator) == _second_normalization(*raw)


def test_ceil_floor():
    assert ceil_rational(Fraction(1, 2)) == 1
    assert floor_rational(Fraction(1, 2)) == 0
    assert ceil_rational(Fraction(-1, 2)) == 0
    assert ceil_rational(Fraction(3)) == 3


# ---------------------------------------------------------------------------
# Fields


# canonical_modulus(p, k) for every p^k <= 2^16, constant term first,
# as produced by the lexicographically-first search
PINNED_MODULI = {
    2: ["01", "111", "1101", "11001", "101001", "1100001", "11000001",
        "110110001", "1100000001", "10010000001", "101000000001",
        "1001000000001", "11011000000001", "100001000000001",
        "1100000000000001", "11010100000000001"],
    3: ["01", "101", "1201", "21001", "120001", "2100001", "20100001",
        "201000001", "1012000001", "10200000001"],
    5: ["01", "201", "1101", "20001", "140001", "2100001"],
    7: ["01", "101", "2001", "11001", "310001"],
}


def test_canonical_moduli_are_pinned():
    for p, moduli in PINNED_MODULI.items():
        assert p ** (len(moduli) + 1) > 2**16 >= p ** len(moduli)
        for k, digits in enumerate(moduli, 1):
            assert canonical_modulus(p, k) == Field.of(p, k).modulus == tuple(map(int, digits))


SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("p,k", [pk for pk in SMALL_FIELDS if pk[0] ** pk[1] <= 64])
def test_field_axioms_exhaustively(p, k):
    field = Field.of(p, k)
    q = field.order
    add = [[field.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[field.mul(a, b) for b in range(q)] for a in range(q)]
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        if a != 0:
            assert 1 in mul[a]
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in range(q):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_gf2_one_plus_one():
    assert Field.of(2, 1).add(1, 1) == 0


def test_cube_map_bijectivity_vs_gcd():
    for m in range(1, 10):
        field = Field.of(2, m)
        exhaustive = power_map_is_bijective(field, 3)
        assert exhaustive == (gcd(3, 2**m - 1) == 1)
        assert exhaustive == (m % 2 == 1)


def test_gf8_cube_map_is_bijection_with_spec_modulus():
    field = Field.of(2, 3)
    assert field.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert power_map_is_bijective(field, 3)


def test_gf4_cube_map_is_not_bijective():
    assert not power_map_is_bijective(Field.of(2, 2), 3)


def test_field_operations():
    # GF(9) = GF(3)[x] / (x^2 + 1); a = 1 + x, b = 1 + 2x
    f = Field.of(3, 2)
    a, b = 4, 7
    assert (f.coeffs(a), f.coeffs(b)) == ((1, 1), (1, 2))
    assert f.coeffs(f.add(a, b)) == (2, 0)
    assert f.coeffs(f.mul(a, b)) == (2, 0)  # 1 + 3x + 2x^2 = 1 + 2(-1) = 2
    inverse = 5
    assert f.coeffs(inverse) == (2, 1)
    assert f.mul(a, inverse) == 1
    assert [c for c in range(f.order) if f.mul(a, c) == 1] == [inverse]
    fifth = 1
    for _ in range(5):
        fifth = f.mul(fifth, a)
    assert f.coeffs(fifth) == (2, 2)
    assert 1 not in [f.mul(0, c) for c in range(f.order)]
    with pytest.raises(UsageError, match="inverse of zero"):
        power_map_is_bijective(f, -1)


def test_field_guards():
    with pytest.raises(GuardExceeded):
        canonical_modulus(7, 6)  # 7^6 > 2^16
    with pytest.raises(UsageError):
        canonical_modulus(11, 1)
    assert len(canonical_modulus(2, 13)) == 14


def test_of_order():
    assert Field.of_order(9).k == 2
    assert Field.of_order(8).p == 2
    assert [Field.of_order(q).order for q in (2, 3, 4, 5, 7, 8, 9, 27, 49)] == [
        2, 3, 4, 5, 7, 8, 9, 27, 49]
    for q in (6, 11, 1, 0, -8):
        with pytest.raises(UsageError, match="not a supported prime power"):
            Field.of_order(q)
    with pytest.raises(GuardExceeded):
        Field.of_order(2**17)
