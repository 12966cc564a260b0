"""Partitions, the change-of-basis matrix between kappa classes and flow
derivatives, and sparse polynomials in the deformation variables s_1, s_2, ...

Partitions are weakly decreasing tuples of positive integers, enumerated in
reverse lexicographic order: (5), (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1),
(1,1,1,1,1).  L is read off the series behind the kappa time shift
T_{k+1} = -h_k(-s), with sum_k h_k(s) x^k = exp(sum_j s_j x^j):

    L[lam, mu] = m(lam)! [s_lam] h_{mu_1}(s) ... h_{mu_l}(s),

the number of maps sending the parts of lam, as a list, to l(mu) boxes with
box sums mu_1, ..., mu_l.  kappa[lam, mu] = L[lam, mu]/m(mu)! is still lower
triangular with unit diagonal and integer entries, and its row sums are the
Bell numbers B_{len(lam)}.

Two rings of polynomials in s_1, s_2, ... differ only in how they weigh a
monomial.  In `SPoly`, the ring of the kappa couplings, s_j weighs j
(`monomial_weight`), so every kappa computation bounds its total weight.  In
`DegreePoly`, the ring of a psi time shift t_a -> t_a + s_{v(a)}, every s_j
weighs 1, so a cap bounds the total degree, the number of insertions that a
coefficient reads.  `truncate_weight(cap)` gives a polynomial of either ring
the cap `cap`, and sums and products with it keep that cap and drop the terms
above it.
"""
from __future__ import annotations

from functools import cache
from math import factorial, prod

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
    return prod(factorial(m) for m in multiplicities(lam).values())


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

def monomial_weight(mono: tuple[int, ...]) -> int:
    """Weight of s_1^{e_1} s_2^{e_2} ...: sum of j * e_j."""
    return sum((j + 1) * e for j, e in enumerate(mono))


def partition_to_monomial(lam: tuple[int, ...]) -> tuple[int, ...]:
    """s_lam = prod s_{lam_i} as an exponent vector."""
    if not lam:
        return ()
    mult = multiplicities(lam)
    if min(mult) < 1:
        raise ValueError(f"partition parts must be positive, got {tuple(lam)}")
    top = max(mult)
    return tuple(mult.get(j + 1, 0) for j in range(top))


class SPoly(SparsePoly):
    """Sparse polynomial in s_1, s_2, ... with exact rational coefficients,
    weighed by `monomial_weight`; after `truncate_weight(cap)` it and every
    sum and product built from it are known to weight cap."""

    __slots__ = ()
    _var = "s"
    _first_index = 1
    _weight = staticmethod(monomial_weight)


class DegreePoly(SparsePoly):
    """Sparse polynomial in s_1, s_2, ... with exact rational coefficients,
    weighed by total degree; after `truncate_weight(cap)` it and every sum
    and product built from it are known to degree cap."""

    __slots__ = ()
    _var = "s"
    _first_index = 1
    _weight = staticmethod(sum)


_H = [SPoly.const(1)]  # h_0, h_1, ... as far as any call has needed


def h_polynomials(K: int) -> list[SPoly]:
    """h_0..h_K with sum_k h_k(s) x^k = exp(sum_j s_j x^j), via
    k h_k = sum_{j=1}^{k} j s_j h_{k-j}; each h_k is built once, and every
    call returns a fresh list."""
    for k in range(len(_H), K + 1):
        acc = SPoly()
        for j in range(1, k + 1):
            acc = acc + SPoly.var(j) * j * _H[k - j]
        _H.append(acc * rat(1, k))
    return _H[: max(K, 0) + 1]


@cache
def _h_product(mu: tuple[int, ...]) -> SPoly:
    """h_{mu_1}(s) ... h_{mu_l}(s); cached with its tails, one product per mu."""
    if len(mu) < 2:
        return h_polynomials(sum(mu))[-1]
    return _h_product(mu[:1]) * _h_product(mu[1:])


def l_entry(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """L[lam, mu] = m(lam)! [s_lam] prod_i h_{mu_i}(s), as in the module
    docstring; zero unless |lam| = |mu|."""
    if min((*lam, *mu), default=1) < 1:
        raise ValueError(f"partition parts must be positive, got {lam}, {mu}")
    coeff = _h_product(tuple(mu)).coefficient(partition_to_monomial(lam))
    return int(coeff * mult_factorial(lam))


def negate_variables(p: SPoly) -> SPoly:
    """Substitute s_j -> -s_j for every j."""
    return p._make(
        {m: (c if sum(m) % 2 == 0 else -c) for m, c in p.terms.items()}, p.cap
    )


__all__ = [
    "partitions_of",
    "multiplicities",
    "mult_factorial",
    "l_entry",
    "bell_number",
    "monomial_weight",
    "partition_to_monomial",
    "SPoly",
    "DegreePoly",
    "h_polynomials",
    "negate_variables",
]
