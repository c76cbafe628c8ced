"""Exact nonnegative-rational scalars.

All weights, factors and certificate multipliers in this package are
`fractions.Fraction` values: stored in lowest terms with a positive
denominator, totally ordered, exact.  This module adds the small pieces
Fraction does not ship: the ``p/q`` text form (``q`` omitted when 1),
ceiling division for rational parameters, and clearing a vector's
denominators so that exact hot paths can run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import UsageError


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q``, omitting ``/q`` when q == 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def clear_denominators(values) -> tuple[list[int], int]:
    """Ints n and the least d >= 1 with n[i] / d == values[i], exactly.

    Values are ints or Fractions; any other number goes through Fraction
    first.  Since d > 0, each n[i] has the sign of values[i].
    """
    if all(type(v) is int for v in values):
        return list(values), 1
    if all(type(v) is Fraction and v.denominator == 1 for v in values):
        return [v.numerator for v in values], 1
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def ceil_rational(value: Fraction) -> int:
    """Smallest integer >= value."""
    return -((-value.numerator) // value.denominator)


def floor_rational(value: Fraction) -> int:
    """Largest integer <= value."""
    return value.numerator // value.denominator
