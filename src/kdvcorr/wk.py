"""Intersection numbers of psi classes from closed matrix-trace formulas.

The generating matrix M(y) in the squared variable y = z^2 is

    M = [[ h,  f ],
         [ e, -h ]],    M^2 = y * Id,

    h(y) = -1/2 * sum_{g>=1} P_g y^{-3g+2},  P_g = (6g-5)!!/(24^(g-1) (g-1)!)
    f(y) = -sum_{g>=0} a_g y^{-3g},          a_g = (6g-1)!!/(24^g g!)
    e(y) =  sum_{g>=0} b_g y^{-3g+1},        b_g = (6g+1)/(6g-1) * a_g.

M is the quadratic form of the wave pair (psi, psi_x) = (c, z q) at t = 0,
built from the hypergeometric-type series

    c(z) = sum_k C_k z^{-3k},  C_k = (-1)^k (6k)! / (288^k (3k)! (2k)!)
    q(z) = sum_k q_k z^{-3k},  q_k = (1+6k)/(1-6k) * C_k,

as h = -(c (zq)b + (zq) cb)/2, f = -c cb and e = (zq)(zq)b with
Xb := X(-z), and c(z) q(-z) + c(-z) q(z) = 2.  The n-point expansion of
these traces (see npoint) collects all intersection numbers of a given width
n at once:

    <tau_{k_1} ... tau_{k_n}> = [y_1^{-k_1-1} ... y_n^{-k_n-1}] F_n
                                 / prod_i (2 k_i + 1)!!

with the one-point values carried by the explicit series
F_1 = sum_{g>=1} (6g-3)!!/(24^g g!) z^{-6g+2}.

Only multisets with every index >= 2 are traced: one memoized reduction
(reducer) removes each tau_0 and tau_1 by the string and dilaton equations
(_lower_terms), down to the closed one-point values and <tau_0^3> = 1, and
reads each remaining multiset from a leaf: the trace of its own point window
(point_leaf, for single correlators) or of the table's box at its width
(n_point_table).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations_with_replacement

from .npoint import npoint_window
from .rationals import double_factorial, factorial, odd_double_factorial, rat
from .series import LaurentSeries


def genus(ks) -> int | None:
    """Genus forced by the dimension constraint, or None when no genus fits."""
    ks = tuple(ks)
    num = sum(ks) - len(ks) + 3
    if num % 3 or num < 0:
        return None
    return num // 3


def fz_c(low: int) -> LaurentSeries:
    """c(z) = sum C_k z^{-3k} down to exponent floor `low`."""
    coeffs = {}
    for k in range(0, (-low) // 3 + 1):
        if -3 * k >= low:
            c = rat((-1) ** k * factorial(6 * k), 288**k)
            coeffs[-3 * k] = c / (factorial(3 * k) * factorial(2 * k))
    return LaurentSeries(coeffs, low=low)


def fz_q(low: int) -> LaurentSeries:
    """q(z) = sum (1+6k)/(1-6k) C_k z^{-3k} down to exponent floor `low`."""
    c = fz_c(low)
    coeffs = {
        e: rat(1 - 2 * e) / rat(1 + 2 * e) * v for e, v in c.coefficients.items()
    }
    return LaurentSeries(coeffs, low=low)


@cache
def _p_coeff(g: int):
    return rat(double_factorial(6 * g - 5), 24 ** (g - 1) * factorial(g - 1))


@cache
def _a_coeff(g: int):
    return rat(double_factorial(6 * g - 1), 24**g * factorial(g))


@cache
def _b_coeff(g: int):
    return rat(6 * g + 1) / rat(6 * g - 1) * _a_coeff(g)


def m_matrix(floor: int) -> list[list[dict]]:
    """M(y) as 2x2 {y-exponent: rational} dicts, complete down to `floor`."""
    h = {}
    for g in range(1, (2 - floor) // 3 + 1):
        e = -3 * g + 2
        if e >= floor:
            h[e] = -_p_coeff(g) / 2
    f = {}
    for g in range(0, -floor // 3 + 1):
        e = -3 * g
        if e >= floor:
            f[e] = -_a_coeff(g)
    ee = {}
    for g in range(0, (1 - floor) // 3 + 1):
        e = -3 * g + 1
        if e >= floor:
            ee[e] = _b_coeff(g)
    return [[h, f], [ee, {k: -v for k, v in h.items()}]]


def m_matrix_z(low: int) -> list[list[LaurentSeries]]:
    """M as Laurent series in z (exponents doubled from the y form)."""
    return [
        [LaurentSeries({2 * e: c for e, c in d.items() if 2 * e >= low}, low)
         for d in row]
        for row in m_matrix(low // 2)
    ]


def one_point_series(low: int) -> LaurentSeries:
    """F_1(z) = sum_k <tau_k> (2k+1)!! z^{-2k-2} down to `low`."""
    return LaurentSeries(
        {-2 * k - 2: one_point(k) * odd_double_factorial(k) for k in range(-low // 2)},
        low=low,
    )


def one_point(k: int):
    """<tau_k>, nonzero exactly when k = 3g - 2."""
    if k < 0:
        raise ValueError("negative index")
    g = genus((k,))
    if g is None or g == 0:
        return rat(0)
    return rat(1, 24**g * factorial(g))


def correlator(ks, *, verify: bool = False):
    """<tau_{k_1} ... tau_{k_n}> as an exact rational, by the reduction with
    point leaves: only all->=2 multisets are traced, and `verify` re-checks
    those traces."""
    ks = tuple(sorted(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one index")
    if ks[0] < 0:
        raise ValueError("negative index")
    if genus(ks) is None:
        return rat(0)
    return reducer(point_leaf(verify))(ks)


def reducer(leaf):
    """A memoized <tau_K> of sorted keys K that have a genus: width 1 by
    one_point, <tau_0^3> = 1, a tau_0 or tau_1 by _lower_terms, and every
    other key, all indices >= 2, by leaf(K).  The memo spans the calls of
    the one returned function."""

    @cache
    def value(ks):
        if len(ks) == 1:
            return one_point(ks[0])
        if ks == (0, 0, 0):
            return rat(1)
        if ks[0] <= 1:
            return sum(c * value(low) for c, low in _lower_terms(ks))
        return leaf(ks)

    return value


def _lower_terms(ks) -> list:
    """The (coefficient, sorted width n-1 key) terms of a sorted key ks other
    than (0, 0, 0) whose first index is 0 or 1, each distinct key once:

        <tau_0 tau_K>   = sum_i <tau_K with k_i lowered by 1>   (string)
        <tau_1 tau_K>_g = (2g - 2 + |K|) <tau_K>_g              (dilaton)

    Both keep the genus.
    """
    rest = ks[1:]
    if ks[0] == 1:
        return [(2 * genus(ks) - 2 + len(rest), rest)]
    return [
        (rest.count(k), rest[:i] + (k - 1,) + rest[i + 1 :])
        for i, k in enumerate(rest)
        if k and (i == 0 or rest[i - 1] != k)
    ]


def _read(coeffs: dict, ks):
    """<tau_K> from traced coefficients: the entry at the exponent key
    (-k_1 - 1, ..., -k_n - 1), in the order of ks, over prod (2 k_i + 1)!!.
    The n-point function is symmetric, so any order of ks reads the same
    entry of a box traced over one window per variable."""
    v = rat(coeffs.get(tuple(-k - 1 for k in ks), 0))
    for k in ks:
        v = v / odd_double_factorial(k)
    return v


def point_leaf(verify: bool):
    """The leaf that traces the point window of each multiset it is given:
    one single-exponent window per index, in the order of ks, since
    npoint_window picks the trace order itself."""

    def leaf(ks):
        windows = [(-k - 1, -k - 1) for k in ks]
        return _read(npoint_window(len(ks), windows, m_matrix, verify=verify), ks)

    return leaf


@dataclass
class CorrelatorTable:
    """All <tau_{k_1} ... tau_{k_n}> with k_min <= k_1 <= ... <= k_n <= k_max."""

    n: int
    k_min: int
    k_max: int
    entries: dict = field(default_factory=dict)

    def sorted_items(self):
        return sorted(self.entries.items())


def n_point_table(
    n: int,
    k_max: int,
    k_min: int = 0,
    *,
    verify: bool = False,
    workers: int = 1,
) -> CorrelatorTable:
    """Every width-n correlator with all indices in [k_min, k_max].

    Each multiset with a genus goes through the reduction.  Its leaf at
    width m reads the box [max(k_min, 2), k_max]^m, traced once, when the
    first key of that width needs it; a string or dilaton step never leaves
    [k_min, k_max], so every leaf key lies in its box.
    """
    if n < 1:
        raise ValueError("width must be positive")
    if k_min < 0 or k_max < k_min:
        raise ValueError("bad index range")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    @cache
    def box(m):
        windows = [(-k_max - 1, -max(k_min, 2) - 1)] * m
        return npoint_window(m, windows, m_matrix, verify=verify, workers=workers)

    value = reducer(lambda ks: _read(box(len(ks)), ks))
    table = CorrelatorTable(n=n, k_min=k_min, k_max=k_max)
    for ks in combinations_with_replacement(range(k_min, k_max + 1), n):
        if genus(ks) is not None and (v := value(ks)):
            table.entries[ks] = v
    return table


__all__ = [
    "CorrelatorTable",
    "correlator",
    "fz_c",
    "fz_q",
    "genus",
    "m_matrix",
    "m_matrix_z",
    "n_point_table",
    "one_point",
    "one_point_series",
]
