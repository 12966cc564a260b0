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
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


def fz_c(low: int, variable: str = "z") -> LaurentSeries:
    """c(z) = sum C_k z^{-3k} down to exponent floor `low`."""
    coeffs = {}
    for k in range(0, (-low) // 3 + 1):
        if -3 * k >= low:
            c = rat((-1) ** k * factorial(6 * k), 288**k)
            coeffs[-3 * k] = c / (factorial(3 * k) * factorial(2 * k))
    return LaurentSeries(variable, coeffs, low=low)


def fz_q(low: int, variable: str = "z") -> LaurentSeries:
    """q(z) = sum (1+6k)/(1-6k) C_k z^{-3k} down to exponent floor `low`."""
    c = fz_c(low, variable)
    coeffs = {
        e: rat(1 - 2 * e) / rat(1 + 2 * e) * v for e, v in c.coefficients.items()
    }
    return LaurentSeries(variable, coeffs, low=low)


def _p_coeff(g: int):
    return rat(double_factorial(6 * g - 5), 24 ** (g - 1) * factorial(g - 1))


def _a_coeff(g: int):
    return rat(double_factorial(6 * g - 1), 24**g * factorial(g))


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


def m_matrix_z(low: int, variable: str = "z") -> list[list[LaurentSeries]]:
    """M as Laurent series in z (exponents doubled from the y form)."""
    ent = m_matrix(low // 2 if low % 2 == 0 else (low - 1) // 2)
    out = []
    for row in ent:
        out.append(
            [
                LaurentSeries(
                    variable, {2 * e: c for e, c in d.items() if 2 * e >= low}, low=low
                )
                for d in row
            ]
        )
    return out


def product_cc(low: int, variable: str = "z") -> LaurentSeries:
    """Closed form of c(z) c(-z) = sum a_g z^{-6g}."""
    coeffs = {}
    for g in range(0, -low // 6 + 1):
        if -6 * g >= low:
            coeffs[-6 * g] = _a_coeff(g)
    return LaurentSeries(variable, coeffs, low=low)


def product_qq(low: int, variable: str = "z") -> LaurentSeries:
    """Closed form of q(z) q(-z) = -sum b_g z^{-6g}."""
    coeffs = {}
    for g in range(0, -low // 6 + 1):
        if -6 * g >= low:
            coeffs[-6 * g] = -_b_coeff(g)
    return LaurentSeries(variable, coeffs, low=low)


def product_cq(low: int, variable: str = "z") -> LaurentSeries:
    """Closed form of c(z) q(-z) = 1 - (1/2) sum P_g z^{-6g+3}."""
    coeffs = {0: rat(1)}
    for g in range(1, (3 - low) // 6 + 1):
        e = -6 * g + 3
        if e >= low:
            coeffs[e] = -_p_coeff(g) / 2
    return LaurentSeries(variable, coeffs, low=low)


def product_qc(low: int, variable: str = "z") -> LaurentSeries:
    """Closed form of q(z) c(-z) = 1 + (1/2) sum P_g z^{-6g+3}."""
    coeffs = {0: rat(1)}
    for g in range(1, (3 - low) // 6 + 1):
        e = -6 * g + 3
        if e >= low:
            coeffs[e] = _p_coeff(g) / 2
    return LaurentSeries(variable, coeffs, low=low)


def one_point_series(low: int, variable: str = "z") -> LaurentSeries:
    """F_1(z) = sum_{g>=1} (6g-3)!!/(24^g g!) z^{-6g+2} down to `low`."""
    coeffs = {}
    g = 1
    while -6 * g + 2 >= low:
        coeffs[-6 * g + 2] = rat(double_factorial(6 * g - 3), 24**g * factorial(g))
        g += 1
    return LaurentSeries(variable, coeffs, low=low)


def one_point(k: int):
    """<tau_k>, nonzero exactly when k = 3g - 2."""
    if k < 0:
        raise ValueError("negative index")
    g = genus((k,))
    if g is None or g == 0:
        return rat(0)
    return rat(1, 24**g * factorial(g))


def correlator(ks, *, verify: bool = False, floor: int | None = None):
    """<tau_{k_1} ... tau_{k_n}> as an exact rational.

    `floor` optionally deepens the internal matrix truncation budget; it can
    never relax the computed minimum, so the value is unaffected.
    """
    ks = tuple(int(k) for k in ks)
    if not ks:
        raise ValueError("need at least one index")
    if any(k < 0 for k in ks):
        raise ValueError("negative index")
    if genus(ks) is None:
        return rat(0)
    if len(ks) == 1:
        return one_point(ks[0])
    ordered = sorted(ks, reverse=True)
    windows = [(-k - 1, -k - 1) for k in ordered]
    coeffs = npoint_window(len(ks), windows, m_matrix, verify=verify, floor=floor)
    target = tuple(-k - 1 for k in ordered)
    value = coeffs.get(target, 0)
    for k in ks:
        value = value / odd_double_factorial(k)
    return rat(value)


@dataclass
class CorrelatorTable:
    """All <tau_{k_1} ... tau_{k_n}> with k_min <= k_1 <= ... <= k_n <= k_max."""

    n: int
    k_min: int
    k_max: int
    mode: str = "plain"
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
    floor: int | None = None,
) -> CorrelatorTable:
    """Every width-n correlator with all indices in [k_min, k_max]."""
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
    windows = [(-k_max - 1, -k_min - 1)] * n
    coeffs = npoint_window(
        n, windows, m_matrix, verify=verify, workers=workers, floor=floor
    )
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
            table.entries[ks] = v
    return table


def normalization_factor(ks, mode: str):
    """Multiplier converting a plain correlator to the requested convention."""
    if mode == "plain":
        return rat(1)
    if mode == "witten":
        f = rat(1)
        for k in ks:
            f = f * odd_double_factorial(k)
        return f
    if mode == "kontsevich":
        f = rat(1)
        for k in ks:
            f = f * double_factorial(2 * k - 1)
        return f
    raise ValueError(f"unknown normalization mode: {mode}")


def normalization_convert(table: CorrelatorTable, mode: str) -> CorrelatorTable:
    """Re-normalized copy of a plain-mode table."""
    if table.mode != "plain":
        raise ValueError("can only convert tables in plain mode")
    out = CorrelatorTable(n=table.n, k_min=table.k_min, k_max=table.k_max, mode=mode)
    for ks, v in table.entries.items():
        out.entries[ks] = v * normalization_factor(ks, mode)
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
    "normalization_convert",
    "normalization_factor",
    "one_point",
    "one_point_series",
    "product_cc",
    "product_cq",
    "product_qc",
    "product_qq",
]
