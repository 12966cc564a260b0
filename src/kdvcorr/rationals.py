"""Exact rational scalars: every coefficient is a fractions.Fraction.

Fractions stay in lowest terms with a positive denominator and never round,
so every result in the package is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

# the one coefficient type, named in benchmark run records
BACKEND = "fraction"


def rat(num, den=1) -> Fraction:
    """Exact rational num/den."""
    return Fraction(num, den)


def rat_str(x) -> str:
    """Canonical text form: "num/den", or just "num" for integers."""
    num, den = num_den(x)
    return str(num) if den == 1 else f"{num}/{den}"


def num_den(x) -> tuple[int, int]:
    x = Fraction(x)
    return x.numerator, x.denominator


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def odd_double_factorial(k: int) -> int:
    """(2k+1)!!, the weight attached to a tau_k insertion."""
    return double_factorial(2 * k + 1)


__all__ = [
    "BACKEND",
    "rat",
    "rat_str",
    "num_den",
    "factorial",
    "double_factorial",
    "odd_double_factorial",
]
