"""Intersection numbers of psi classes from closed matrix-trace formulas.

The generating matrix M(y) in the squared variable y = z^2 is

    M = [[ h,  f ],
         [ e, -h ]],    M^2 = y * Id,

    h(y) = -1/2 * sum_{g>=1} P_g y^{-3g+2},  P_g = (6g-5)!!/(24^(g-1) (g-1)!)
    f(y) = -sum_{g>=0} a_g y^{-3g},          a_g = (6g-1)!!/(24^g g!)
    e(y) =  sum_{g>=0} b_g y^{-3g+1},        b_g = (6g+1)/(6g-1) * a_g.

Equivalently M is assembled from the hypergeometric-type pair

    c(z) = sum_k C_k z^{-3k},  C_k = (-1)^k (6k)! / (288^k (3k)! (2k)!)
    q(z) = sum_k q_k z^{-3k},  q_k = (1+6k)/(1-6k) * C_k

through c(z) q(-z) + c(-z) q(z) = 2 and the product identities tested in the
self-test suite.  The n-point expansion of these traces (see npoint) collects
all intersection numbers of a given width n at once:

    <tau_{k_1} ... tau_{k_n}> = [y_1^{-k_1-1} ... y_n^{-k_n-1}] F_n
                                 / prod_i (2 k_i + 1)!!

with the one-point values carried by the explicit series
F_1 = sum_{g>=1} (6g-3)!!/(24^g g!) z^{-6g+2}.

Only multisets with every index >= 2 are traced: the string and dilaton
equations (_lower_terms) remove each tau_0 and tau_1 first, down to the
closed one-point values.  A table of width n >= 2 (n_point_table) fills its
entries with a tau_0 or a tau_1 from the width n-1 table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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


def product_cc(low: int) -> LaurentSeries:
    """Closed form of c(z) c(-z) = sum a_g z^{-6g}."""
    coeffs = {}
    for g in range(0, -low // 6 + 1):
        if -6 * g >= low:
            coeffs[-6 * g] = _a_coeff(g)
    return LaurentSeries(coeffs, low=low)


def product_qq(low: int) -> LaurentSeries:
    """Closed form of q(z) q(-z) = -sum b_g z^{-6g}."""
    coeffs = {}
    for g in range(0, -low // 6 + 1):
        if -6 * g >= low:
            coeffs[-6 * g] = -_b_coeff(g)
    return LaurentSeries(coeffs, low=low)


def product_cq(low: int) -> LaurentSeries:
    """Closed form of c(z) q(-z) = 1 - (1/2) sum P_g z^{-6g+3}."""
    coeffs = {0: rat(1)}
    for g in range(1, (3 - low) // 6 + 1):
        e = -6 * g + 3
        if e >= low:
            coeffs[e] = -_p_coeff(g) / 2
    return LaurentSeries(coeffs, low=low)


def product_qc(low: int) -> LaurentSeries:
    """Closed form of q(z) c(-z) = 1 + (1/2) sum P_g z^{-6g+3}."""
    coeffs = {0: rat(1)}
    for g in range(1, (3 - low) // 6 + 1):
        e = -6 * g + 3
        if e >= low:
            coeffs[e] = _p_coeff(g) / 2
    return LaurentSeries(coeffs, low=low)


def one_point_series(low: int) -> LaurentSeries:
    """F_1(z) = sum_{g>=1} (6g-3)!!/(24^g g!) z^{-6g+2} down to `low`."""
    coeffs = {}
    g = 1
    while -6 * g + 2 >= low:
        coeffs[-6 * g + 2] = rat(double_factorial(6 * g - 3), 24**g * factorial(g))
        g += 1
    return LaurentSeries(coeffs, low=low)


def one_point(k: int):
    """<tau_k>, nonzero exactly when k = 3g - 2."""
    if k < 0:
        raise ValueError("negative index")
    g = genus((k,))
    if g is None or g == 0:
        return rat(0)
    return rat(1, 24**g * factorial(g))


def correlator(ks, *, verify: bool = False):
    """<tau_{k_1} ... tau_{k_n}> as an exact rational.  Each tau_0 and tau_1
    goes by _lower_terms, which keeps the genus, each lower key once per call;
    only all->=2 multisets are traced, and `verify` re-checks those traces."""
    ks = tuple(sorted(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one index")
    if ks[0] < 0:
        raise ValueError("negative index")
    if genus(ks) is None:
        return rat(0)

    @cache
    def value(ks):
        if len(ks) == 1:
            return one_point(ks[0])
        if ks == (0, 0, 0):
            return rat(1)
        if ks[0] <= 1:
            return sum(c * value(low) for c, low in _lower_terms(ks))
        windows = [(-k - 1, -k - 1) for k in reversed(ks)]
        return _traced_entries(windows, verify, 1).get(ks, rat(0))

    return value(ks)


def _lower_terms(ks) -> list:
    """The (coefficient, sorted width n-1 key) terms of a sorted key ks other
    than (0, 0, 0) whose first index is 0 or 1, each distinct key once:

        <tau_0 tau_K>   = sum_i <tau_K with k_i lowered by 1>   (string)
        <tau_1 tau_K>_g = (2g - 2 + |K|) <tau_K>_g              (dilaton)
    """
    rest = ks[1:]
    if ks[0] == 1:
        return [(2 * genus(ks) - 2 + len(rest), rest)]
    return [
        (rest.count(k), rest[:i] + (k - 1,) + rest[i + 1 :])
        for i, k in enumerate(rest)
        if k and (i == 0 or rest[i - 1] != k)
    ]


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

    Only the box with every index >= 2 is traced.  The entries with a tau_0
    or a tau_1 come by string and dilaton (_lower_terms) from the width n-1
    table over [k_min, k_max], built by this same function with the same
    `verify` and `workers`, down to the closed one_point at width 1, with the
    one unstable base <tau_0^3> = 1.
    """
    if n < 1:
        raise ValueError("width must be positive")
    if k_min < 0 or k_max < k_min:
        raise ValueError("bad index range")
    table = CorrelatorTable(n=n, k_min=k_min, k_max=k_max)
    if n == 1:
        for k in range(k_min, k_max + 1):
            v = one_point(k)
            if v:
                table.entries[(k,)] = v
        return table
    if k_max >= 2:
        box = [(-k_max - 1, -max(k_min, 2) - 1)] * n
        table.entries.update(_traced_entries(box, verify, workers))
    if k_min <= 1:
        lower = n_point_table(n - 1, k_max, k_min, verify=verify, workers=workers)
        table.entries.update(_string_and_dilaton(lower.entries, n, k_min, k_max))
    return table


def _traced_entries(windows: list, verify: bool, workers: int) -> dict:
    """The nonzero correlators in one trace of the y-exponent windows, one
    per index multiset, keyed by its sorted indices."""
    n = len(windows)
    coeffs = npoint_window(n, windows, m_matrix, verify=verify, workers=workers)
    entries = {}
    for key, c in coeffs.items():
        ks = tuple(sorted(-e - 1 for e in key))
        if tuple(-k - 1 for k in sorted(ks, reverse=True)) != key:
            continue  # keep one representative ordering per index multiset
        if genus(ks) is None:
            continue
        v = rat(c)
        for k in ks:
            v = v / odd_double_factorial(k)
        if v:
            entries[ks] = v
    return entries


def _string_and_dilaton(lower: dict, n: int, k_min: int, k_max: int) -> dict:
    """The width-n entries over [k_min, k_max], k_min <= 1, that hold a tau_0
    or a tau_1, from `lower`: the nonzero width n-1 entries over the same
    range.  Every psi number is positive, so no sum here is zero."""
    keys = {(1,) + ks for ks in lower if ks[0] >= 1}
    if k_min == 0:
        # a nonzero <tau_0 tau_K> has a lower key below K: raise one index of it
        keys.update(
            (0,) + tuple(sorted(ks[:i] + (k + 1,) + ks[i + 1 :]))
            for ks in lower
            for i, k in enumerate(ks)
            if k < k_max
        )
    out = {
        ks: sum(c * lower.get(low, 0) for c, low in _lower_terms(ks))
        for ks in keys
    }
    if n == 3 and k_min == 0:
        out[(0, 0, 0)] = rat(1)
    return out


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
    "product_cc",
    "product_cq",
    "product_qc",
    "product_qq",
]
