"""Partitions, the change-of-basis matrix between kappa classes and flow
derivatives, and sparse polynomials in the deformation variables s_1, s_2, ...

Partitions are weakly decreasing tuples of positive integers, enumerated in
reverse lexicographic order: (5), (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1),
(1,1,1,1,1).  For partitions lam, mu of the same weight,

    L[lam, mu] = sum over placements k_1..k_v of the parts of lam that are
                 >= 2 onto positions 1..len(mu) of the multinomial
                 (m1(lam); mu_1 - sum of parts placed at 1, ...)

with v = len(lam) - m1(lam); the matrix kappa[lam, mu] = L[lam, mu]/m(mu)! is
lower triangular with unit diagonal and integer entries, and its row sums are
the Bell numbers B_{len(lam)}.

The s-variables carry weight(s_j) = j.  Products truncate at the weight cap
installed by `weight_cap` (a module-level config, settable as a context
manager), matching how every kappa computation bounds its total weight.
"""
from __future__ import annotations

import contextlib
from itertools import product as _iproduct
from math import factorial

from .rationals import rat
from .series import SparsePoly


def partitions_of(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n in reverse lexicographic order; n=0 gives [()]."""
    if n < 0:
        raise ValueError("negative weight")
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def multiplicities(lam: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out


def mult_factorial(lam: tuple[int, ...]) -> int:
    """m(lam)! = product over distinct parts of (multiplicity)!."""
    out = 1
    for m in multiplicities(lam).values():
        out *= factorial(m)
    return out


def multinomial(n: int, parts) -> int:
    """(n; parts) with the convention 0 unless all parts >= 0 and sum to n."""
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def l_entry(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The combinatorial coefficient L[lam, mu] described in the module
    docstring; zero unless |lam| = |mu|."""
    if sum(lam) != sum(mu):
        return 0
    big = [p for p in lam if p >= 2]
    m1 = len(lam) - len(big)
    ell = len(mu)
    if not mu:
        return 1 if not lam else 0
    total = 0
    for ks in _iproduct(range(ell), repeat=len(big)):
        residue = list(mu)
        for j, k in enumerate(ks):
            residue[k] -= big[j]
        total += multinomial(m1, residue)
    return total


def kappa_matrix(d: int) -> list[list[int]]:
    """Rows and columns over partitions_of(d) in reverse lexicographic order;
    entry [lam][mu] = L[lam, mu] / m(mu)!, always an integer."""
    parts = partitions_of(d)
    rows = []
    for lam in parts:
        row = []
        for mu in parts:
            l = l_entry(lam, mu)
            mf = mult_factorial(mu)
            if l % mf:
                raise ArithmeticError(f"non-integer kappa entry at {lam}, {mu}")
            row.append(l // mf)
        rows.append(row)
    return rows


def bell_number(k: int) -> int:
    """Number of set partitions of k elements, by the Bell triangle."""
    if k < 0:
        raise ValueError("negative argument")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# -- sparse polynomials in s_1, s_2, ... -------------------------------------

_WEIGHT_CAP: int | None = None


@contextlib.contextmanager
def weight_cap(cap: int | None):
    """Install a total-weight truncation for s-polynomial products."""
    global _WEIGHT_CAP
    old = _WEIGHT_CAP
    _WEIGHT_CAP = cap
    try:
        yield
    finally:
        _WEIGHT_CAP = old


def current_weight_cap() -> int | None:
    return _WEIGHT_CAP


def monomial_weight(mono: tuple[int, ...]) -> int:
    """Weight of s_1^{e_1} s_2^{e_2} ...: sum of j * e_j."""
    return sum((j + 1) * e for j, e in enumerate(mono))


def partition_to_monomial(lam: tuple[int, ...]) -> tuple[int, ...]:
    """s_lam = prod s_{lam_i} as an exponent vector."""
    if not lam:
        return ()
    mult = multiplicities(lam)
    top = max(mult)
    return tuple(mult.get(j + 1, 0) for j in range(top))


def monomial_to_partition(mono: tuple[int, ...]) -> tuple[int, ...]:
    parts = []
    for j, e in enumerate(mono):
        parts.extend([j + 1] * e)
    return tuple(sorted(parts, reverse=True))


class SPoly(SparsePoly):
    """Sparse polynomial in s_1, s_2, ... with exact rational coefficients;
    products truncate at the installed `weight_cap`."""

    __slots__ = ()
    _var = "s"
    _first_index = 1
    _weight = staticmethod(monomial_weight)

    @classmethod
    def var(cls, j: int, coeff=1) -> "SPoly":
        """The variable s_j."""
        if j < 1:
            raise ValueError("s-variables are indexed from 1")
        return cls({tuple(0 if i < j - 1 else 1 for i in range(j)): coeff})

    def _product_cap(self) -> int | None:
        return _WEIGHT_CAP

    def coefficient_of_partition(self, lam: tuple[int, ...]):
        return self.coefficient(partition_to_monomial(lam))

    def truncate_weight(self, cap: int) -> "SPoly":
        return SPoly(
            {m: c for m, c in self.terms.items() if monomial_weight(m) <= cap}
        )

    def max_weight(self) -> int:
        return max((monomial_weight(m) for m in self.terms), default=0)


def h_polynomials(K: int) -> list[SPoly]:
    """h_0..h_K with sum_k h_k(s) x^k = exp(sum_j s_j x^j), via
    k h_k = sum_{j=1}^{k} j s_j h_{k-j}."""
    hs = [SPoly.const(1)]
    for k in range(1, K + 1):
        acc = SPoly()
        for j in range(1, k + 1):
            acc = acc + SPoly.var(j, coeff=j) * hs[k - j]
        hs.append(acc * rat(1, k))
    return hs


def negate_variables(p: SPoly) -> SPoly:
    """Substitute s_j -> -s_j for every j."""
    return SPoly(
        {m: (c if sum(m) % 2 == 0 else -c) for m, c in p.terms.items()}
    )


__all__ = [
    "partitions_of",
    "multiplicities",
    "mult_factorial",
    "multinomial",
    "l_entry",
    "kappa_matrix",
    "bell_number",
    "weight_cap",
    "current_weight_cap",
    "monomial_weight",
    "partition_to_monomial",
    "monomial_to_partition",
    "SPoly",
    "h_polynomials",
    "negate_variables",
]
