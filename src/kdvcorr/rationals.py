"""Exact rational scalars with a selectable backend.

The default backend is gmpy2.mpq; setting KDVCORR_BACKEND=fraction (or running
without gmpy2 installed) selects fractions.Fraction instead.  Both keep values
in lowest terms with a positive denominator and never round, so every result
in the package is exact whichever backend is active.
"""
from __future__ import annotations

import os
from fractions import Fraction
from math import factorial

_BACKEND_ENV = "KDVCORR_BACKEND"


def _pick_backend() -> tuple[str, type]:
    choice = os.environ.get(_BACKEND_ENV, "").strip().lower()
    if choice in ("", "gmpy2"):
        try:
            from gmpy2 import mpq

            return "gmpy2", mpq
        except ImportError:
            if choice == "gmpy2":
                raise
    elif choice != "fraction":
        raise ValueError(f"unknown {_BACKEND_ENV} value {choice!r}")
    return "fraction", Fraction


BACKEND, _Rat = _pick_backend()


def rat(num, den=1):
    """Exact rational num/den."""
    return _Rat(num, den)


def rat_str(x) -> str:
    """Canonical text form: "num/den", or just "num" for integers."""
    x = _Rat(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def num_den(x) -> tuple[int, int]:
    x = _Rat(x)
    return int(x.numerator), int(x.denominator)


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
