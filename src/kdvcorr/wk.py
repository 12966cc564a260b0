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

The matrix-resolvent formula holds for any KdV tau-function, so at any point
of the KdV times.  `deformed_wave` takes a time shift T(s) = {a: T_a(s)},
polynomials of one SparsePoly ring with no constant term, and solves
psi = psi(z; T(s)) and psi_x there, exact to a cap in that ring's `_weight`:
in `SPoly`, the ring of the kappa couplings (see wp), s_j weighs j; in
`DegreePoly`, the ring of a psi shift, every s_j weighs 1.  The n-point
functions at the shift follow from the same cyclic trace engine run over that
ring with M(z; T(s)), the quadratic form

    M = [[-(psi psi_xb + psib psi_x)/2, -psi psib],
         [psi_x psi_xb, (psi psi_xb + psib psi_x)/2]],     Xb := X(-z).

The wave stays in the point W_0 of the Grassmannian below: psi = a c + b z q
and psi_x = c' c + d z q, where a and c' are the solve's P and b and d its
Q/z, all four even in z (P even, Q odd).  So M(z; T(s)) = G M G^-1 with
G = [[a, -b], [-c', d]], det G = 1, and in the entries of
M = M(z; 0) = [[h, f], [e, -h]]

    M_11 = a c' f + (a d + b c') h - b d e = -M_22,
    M_12 = a^2 f + 2 a b h - b^2 e,
    M_21 = -c'^2 f - 2 c' d h + d^2 e.

The deformed wave proper is A = E psi, B = E psi_x, with
E(z;s) = exp(-sum_a T_a(s) z^{2a+1}/(2a+1)!!).  E(z) E(-z) = 1 cancels from
the quadratic form, but E is not even, so the pairs of A and B do not fit
G M G^-1.

The wave is one triangular solve (Sato-Segal-Wilson, Kac-Schwarz).  At every
time psi and psi_x lie in the same point W_0 of the Grassmannian, which at
the Kontsevich-Witten point is C[z^2] c + C[z^2] z q, with psi|_0 = c and
psi_x|_0 = z q.  So psi = P c + Q q with P in C[z^2][s], Q in z C[z^2][s],
and since psi = e^{xi} (1 + w_1/z + ...) with E = e^{-xi}, A = 1 + O(1/z)
and B = z + [z^-1]A + O(1/z).  With E_e the weight-e part of E (E_0 = 1), the
weight-w parts of P and Q solve

    [P_w c + Q_w q]_{>=0}
        = delta_{w0} - [sum_{e=1}^{w} E_e (P_{w-e} c + Q_{w-e} q)]_{>=0},

a polynomial in z.  z^{2j} c and z^{2j+1} q lead with z^{2j} and z^{2j+1}
(c, q = 1 + O(z^-3)), so it is solved from the top degree down.  B is the
same solve with the right side delta_{w0} z + [z^-1]A_w.

Only multisets with every index >= 2 are traced: one memoized reduction
(reducer) removes each tau_0 and tau_1 by the string and dilaton equations
(_lower_terms), down to the closed one-point values and <tau_0^3> = 1, and
reads each remaining multiset from a leaf.  Every leaf is read by one reader
(_reader), which traces the width-w point function once over w windows at a
psi shift t_a -> t_a + s_{v(a)} of some indices, over DegreePoly and exact
to degree cap.  Taking b and c as the two largest indices,

    <prod_a tau_a^{m_a} tau_b tau_c> = prod_a m_a! [prod_a s_{v(a)}^{m_a}] F_2(b, c),

so at w = 2 one wave and one trace give every multiset of width cap + 2 or
less over the shifted indices.  The empty shift is t = 0, where the reader
traces M itself: a point window, the width-n trace of a multiset's own
exponents over (n-1)!/2 cyclic classes, is the case with nothing shifted.
Every traced number, wp's volumes included, is read by one function
(_entry): the coefficient at the key (-k_1 - 1, ..., -k_n - 1), its s^mono
part times prod_j mono_j! when the trace ran at a shift, over
prod_i (2 k_i + 1)!!.

A single correlator (correlator_leaf) takes its point window below width 6
(point_leaf) and from width 6 up its two largest indices at the shift of the
distinct indices of the rest (shifted_leaf).  The solve is graded by degree,
so the multisets one leaf reads at one shifted set share a wave and an
M(z; T(s)), each cut to its own degree and floor (_shift_matrix).  A table
(n_point_table) traces the box [max(k_min, 2), k_max]^w: up to width 3 at
the empty shift, once per leaf width w, and from width 4 up once at w = 2,
shifting every index of the box, for every leaf of width 2 to n.  The
crossover widths were measured: a shifted trace pays for a wave and for an
M(z; T(s)) in several variables, which a narrow point window does not.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations_with_replacement
from math import prod

from .npoint import npoint_window
from .partitions import DegreePoly, SPoly, partition_to_monomial
from .rationals import double_factorial, factorial, odd_double_factorial, rat
from .series import LaurentSeries, SparsePoly, add_into


def genus(ks) -> int | None:
    """Genus forced by the dimension constraint, or None when no genus fits."""
    ks = tuple(ks)
    num = sum(ks) - len(ks) + 3
    if num % 3 or num < 0:
        return None
    return num // 3


def fz_c(low: int) -> LaurentSeries:
    """c(z) = sum C_k z^{-3k} down to exponent floor `low`."""
    return LaurentSeries(_fz_coefficients(low)[0], low=low)


def fz_q(low: int) -> LaurentSeries:
    """q(z) = sum (1+6k)/(1-6k) C_k z^{-3k} down to exponent floor `low`."""
    return LaurentSeries(_fz_coefficients(low)[1], low=low)


@cache
def _fz_coefficients(low: int) -> tuple[dict, dict]:
    """The coefficients of c(z) and q(z) down to `low`, built once per floor;
    shared, so only ever read (the LaurentSeries constructor copies them)."""
    c = {}
    for k in range(0, (-low) // 3 + 1):
        if -3 * k >= low:
            v = rat((-1) ** k * factorial(6 * k), 288**k)
            c[-3 * k] = v / (factorial(3 * k) * factorial(2 * k))
    q = {e: rat(1 - 2 * e) / rat(1 + 2 * e) * v for e, v in c.items()}
    return c, q


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


# ---------------------------------------------------------------------------
# the wave at a time shift


@dataclass
class DeformedWave:
    """The wave at a time shift T(s) as the triangular solve leaves it: the
    (P, Q) pairs of psi(z; T(s)) and psi_x(z; T(s)), P even and Q odd in z,
    polynomials in s carrying the wave's weight cap; the prefactor E(z;s);
    and `variables`, the j of every s_j in T(s), the only variables the wave
    knows.  M(z; T(s)) = G M G^-1 is a quadratic form of the pairs in the
    entries of M (`m_kappa_matrix`)."""

    psi: tuple[LaurentSeries, LaurentSeries]
    psi_x: tuple[LaurentSeries, LaurentSeries]
    prefactor: LaurentSeries
    variables: frozenset[int]

    def pair(self, which: str) -> tuple[LaurentSeries, LaurentSeries]:
        """The (P, Q) pair of A = E psi ("A") or of B = E psi_x ("B")."""
        if which not in ("A", "B"):
            raise ValueError(f'which must be "A" or "B", got {which!r}')
        pair = self.psi if which == "A" else self.psi_x
        return tuple(self.prefactor * s for s in pair)

    def component(self, lam, which: str = "A") -> tuple[LaurentSeries, LaurentSeries]:
        """The (P, Q) pair of the s_lam component of wave `which`, "A" or
        "B", with rational coefficients."""
        mono = partition_to_monomial(lam)
        outside = set(lam) - self.variables
        if outside:
            raise ValueError(f"s_{max(outside)} is not a variable of this wave")
        return tuple(
            LaurentSeries({e: c.coefficient(mono) for e, c in s.coefficients.items()})
            for s in self.pair(which)
        )


def _shift_ring(times: dict) -> type:
    """The one SparsePoly class of the shift's polynomials (else TypeError);
    an empty shift solves over SPoly."""
    rings = {type(p) for p in times.values()}
    if len(rings) > 1 or not all(issubclass(r, SparsePoly) for r in rings):
        names = ", ".join(sorted(r.__name__ for r in rings))
        raise TypeError(f"a time shift takes polynomials of one ring, got {names}")
    return rings.pop() if rings else SPoly


def _exp_prefactor(times: dict, cap: int, ring: type) -> LaurentSeries:
    """E(z;s) = exp(-sum_a T_a z^{2a+1}/(2a+1)!!) to weight cap in `ring`."""
    t = LaurentSeries(
        {2 * a + 1: -p * rat(1, odd_double_factorial(a)) for a, p in times.items()}
    )
    acc = power = LaurentSeries({0: ring.const(1).truncate_weight(cap)})
    for m in range(1, cap + 1):
        power = power * t
        if power.is_zero_to_truncation():
            break
        acc = acc + power * rat(1, factorial(m))
    return acc


def _ks_solve(rhs: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    """The pair (P, Q), P in C[z^2] and Q in z C[z^2], with
    [P c + Q q]_{>=0} = [rhs]_{>=0}, solved from the top degree down: z^d c
    (d even) or z^d q (d odd) takes the residual's z^d coefficient, and its
    lower terms z^{d-3i} leave the residual."""
    rest = rhs.truncate(0).coefficients  # a fresh dict
    top = max(rest, default=0)
    bases = fz_c(-top), fz_q(-top)
    pair: tuple[dict, dict] = ({}, {})
    for d in range(top, -1, -1):
        r = rest.pop(d, None)
        if r is not None:
            pair[d % 2][d] = r
            for e, v in bases[d % 2].coefficients.items():
                if e and d + e >= 0:
                    add_into(rest, d + e, r * -v)
    return LaurentSeries(pair[0]), LaurentSeries(pair[1])


def _lower_weights(grades: list, xs: list, low: int) -> LaurentSeries:
    """sum_{e>=1} E_e X_{w-e} on the exponents >= low, where xs holds the
    expansions X_0 .. X_{w-1} and grades[e] is E_e."""
    terms = (g * x.truncate(low - _top(g)) for g, x in zip(grades[1:], xs[::-1]))
    return sum(terms, LaurentSeries({}, low))


def deformed_wave(times: dict, cap: int) -> DeformedWave:
    """psi and psi_x at the time shift `times` = {a: T_a(s)}, as pairs over
    the ring of the T_a, exact to weight cap in that ring's `_weight`, by the
    triangular solve of the module docstring, with their prefactor E.  The
    T_a must be of one SparsePoly class (else TypeError; an empty shift
    solves over SPoly), and each must vanish at s = 0 (E_0 = 1);
    `wp.kappa_times(cap)` gives the kappa-coupled wave."""
    if cap < 0:
        raise ValueError("negative weight cap")
    ring = _shift_ring(times)
    for a, p in times.items():
        if a < 0:
            raise ValueError(f"time index must be non-negative, got {a}")
        if () in p.terms:
            raise ValueError(f"the shift of t_{a} has a constant term")
    e = _exp_prefactor(times, cap, ring)
    grades: list = [{} for _ in range(cap + 1)]  # E_w: {z-exponent: {mono: c}}
    for z_exp, c in e.coefficients.items():
        for mono, v in c.terms.items():
            grades[ring._weight(mono)].setdefault(z_exp, {})[mono] = v
    grades = [LaurentSeries({z: ring(t) for z, t in g.items()}) for g in grades]
    # [z^-1] of A_w needs each E_e X_{w-e} down to z^{-deg E_e - 1}
    low = -_top(e) - 1
    # the (P_w, Q_w) of psi and of psi_x, from c and z q at weight 0, and
    # their expansions X_w = P_w c + Q_w q and Y_w
    one, zero = LaurentSeries({0: ring.const(1)}), LaurentSeries.zero()
    a_pairs, b_pairs = [(one, zero)], [(zero, one.shift(1))]
    xs, ys = ([pair_series(ps[0], low)] for ps in (a_pairs, b_pairs))
    for _ in range(cap):
        known = _lower_weights(grades, xs, -1)
        a_pairs.append(_ks_solve(-known))
        xs.append(pair_series(a_pairs[-1], low))
        # [B_w]_{>=0} is [z^-1] A_w, less what the lower weights give
        a_1 = LaurentSeries({0: known.coefficient(-1) + xs[-1].coefficient(-1)})
        b_pairs.append(_ks_solve(a_1 - _lower_weights(grades, ys, 0)))
        ys.append(pair_series(b_pairs[-1], low))
    # the sums hold no term above the cap; a capped 1 records it on each
    capped = ring.const(1).truncate_weight(cap)
    psi, psi_x = (
        tuple(sum(s, zero) * capped for s in zip(*ps)) for ps in (a_pairs, b_pairs)
    )
    variables = frozenset(
        j + 1 for p in times.values() for m in p.terms for j, x in enumerate(m) if x
    )
    return DeformedWave(psi, psi_x, e, variables)


def _top(*series: LaurentSeries) -> int:
    """Largest exponent stored in any of the exact series, at least 0."""
    return max([0, *(e for s in series for e in s.coefficients)])


def pair_series(pair: tuple, low: int) -> LaurentSeries:
    """Expand a (P, Q) pair into the Laurent series P c + Q q down to `low`:
    `dw.psi` gives psi(z; T(s)), `dw.pair("A")` A(z;s) and
    `dw.component(lam)` its s_lam part."""
    p, q = pair
    base_low = low - _top(p, q)
    return (p * fz_c(base_low) + q * fz_q(base_low)).truncate(low)


def m_kappa_matrix(dw: DeformedWave, floor: int) -> list[list[dict]]:
    """M(z; T(s)) as {y-exponent: polynomial} dicts, from the deformed wave
    `dw` and exact to its weight cap; at the kappa shift it is M^kappa.

    M(z; T(s)) = G M G^-1 with G = [[a, -b], [-c', d]], where psi = a c + b z q
    and psi_x = c' c + d z q (see the module docstring), so each entry is a
    quadratic form of a, b, c', d in the entries h, f, e of M, read once
    down to the depth the products need.  The even-power check below guards
    the premise that the pairs' P are even and their Q odd.
    """
    (a, bz), (cp, dz) = dw.psi, dw.psi_x  # cp is c'
    b, d = bz.shift(-1), dz.shift(-1)
    # the (f, h, e) coefficients of M_11, M_12 and M_21
    forms = (
        (a * cp, a * d + b * cp, -(b * d)),
        (a * a, a * b * 2, -(b * b)),
        (-(cp * cp), cp * d * -2, d * d),
    )
    top = _top(*(p for form in forms for p in form))
    (h, f), (e, _) = m_matrix_z(2 * floor - top)

    def to_y(form):
        series = form[0] * f + form[1] * h + form[2] * e
        out = {}
        for k in range(2 * floor, _top(series) + 1):
            if v := series.coefficient(k):  # raises below the series' floor
                if k % 2:
                    raise ArithmeticError("odd power in an even matrix entry")
                out[k // 2] = v
        return out

    m11, m12, m21 = map(to_y, forms)
    return [[m11, m12], [m21, {k: -v for k, v in m11.items()}]]


# ---------------------------------------------------------------------------
# psi numbers: the reduction and its leaves


def correlator(ks, *, verify: bool = False):
    """<tau_{k_1} ... tau_{k_n}> as an exact rational, by the reduction with
    the leaves of `correlator_leaf`: only all->=2 multisets are traced, and
    `verify` re-checks those traces."""
    ks = tuple(sorted(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one index")
    if ks[0] < 0:
        raise ValueError("negative index")
    if genus(ks) is None:
        return rat(0)
    return reducer(correlator_leaf(verify))(ks)


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


def _entry(coeffs: dict, ks, mono=()):
    """A number read from traced coefficients: the entry at the exponent key
    (-k_1 - 1, ..., -k_n - 1), in the order of ks, with a polynomial entry
    taken at prod_j mono_j! [s^mono], over prod (2 k_i + 1)!!.  The n-point
    function is symmetric, so any order of ks reads the same entry of a box
    traced over one window per variable."""
    v = coeffs.get(tuple(-k - 1 for k in ks))
    if v is None:
        return rat(0)
    if mono:
        v = v.coefficient(mono) * prod(map(factorial, mono))
    return rat(v) / prod(map(odd_double_factorial, ks))


def _reader(windows, build=m_matrix, indices=(), *, verify: bool):
    """A reader of <tau_K> from one trace of the w = len(windows) point
    function over `windows` and the matrix factory `build`.  With no
    `indices` the factory is M itself and the reader reads a K of width w.
    With `indices` it is M(z; T(s)) at their psi shift (_shift_matrix), exact
    to some degree cap, and the reader reads a sorted K whose last w indices
    have their exponents in the windows and whose rest K', of at most cap
    indices, is all shifted: prod m_a! [prod s_{v(a)}^{m_a}] F_w."""
    w = len(windows)
    coeffs = npoint_window(w, windows, build, verify=verify)
    return lambda ks: _entry(coeffs, ks[-w:], tuple(map(ks[:-w].count, indices)))


def _shift_matrix(indices, cap: int):
    """M(z; T(s)) at the psi shift t_a -> t_a + s_{v(a)}, v numbering the
    sorted `indices` from 1, over DegreePoly: a factory build(floor, degree)
    of the matrix complete down to floor and exact to a degree <= cap
    (cap when not given).  The solve is graded by degree, so the wave at cap
    cut to a lower degree is the wave at that degree: the factory solves one
    wave at cap, builds M at the deepest floor asked for so far, and cuts it
    to each call's floor and degree."""
    wave = deformed_wave({a: DegreePoly.var(j + 1) for j, a in enumerate(indices)}, cap)
    held_floor, held = 0, None

    def build(floor, degree=cap):
        nonlocal held_floor, held
        if held is None or floor < held_floor:
            held_floor, held = floor, m_kappa_matrix(wave, floor)
        if floor == held_floor and degree == cap:
            return held
        return [
            [{e: p for e, c in ent.items()
              if e >= floor and (p := c.truncate_weight(degree))} for ent in row]
            for row in held
        ]

    return build


def _points(ks) -> list:
    """The single-exponent window of each index, in the order of ks."""
    return [(-k - 1, -k - 1) for k in ks]


def point_leaf(verify: bool):
    """The leaf that traces the point window of each multiset it is given,
    in the order of ks, since npoint_window picks the trace order itself."""
    return lambda ks: _reader(_points(ks), verify=verify)(ks)


def _shift_degree(ks, indices) -> int:
    """The most indices that the rest of a sorted multiset of the weight of
    ks, sum_i (k_i - 1), holds when its distinct indices are `indices` = S
    and its two largest are >= max S: each a in S once, and the weight the
    two largest leave, sum_i (k_i - 1) + 2 - 2 max S - sum_S (a - 1), spent on
    copies of min S >= 2.  It is at least len(ks) - 2, and one number for
    every leaf of one genus at S."""
    spare = sum(ks) - len(ks) + 2 - 2 * indices[-1] - sum(indices) + len(indices)
    return len(indices) + spare // (indices[0] - 1)


def shifted_leaf(verify: bool):
    """The leaf that reads each multiset it is given from a shifted trace of
    its own: the point windows of its two largest indices, over M(z; T(s))
    at the shift of S, the distinct indices of the rest, cut to the degree
    the rest needs.  The multisets given to one leaf share one factory
    (_shift_matrix) per S, so one wave and one M(z; T(s)) at a time.  The
    first multiset at S builds it at its own degree, which is all that a
    single correlator needs; a wider one at S rebuilds it once, at the
    degree _shift_degree gives, which holds every later multiset of its
    genus.  A width-2 multiset has nothing to shift and traces M."""
    shared: dict = {}

    def leaf(ks):
        indices = tuple(sorted(set(ks[:-2])))
        if not indices:
            return _reader(_points(ks), verify=verify)(ks)
        degree = len(ks) - 2
        held = shared.get(indices)
        if held is None or held[0] < degree:
            cap = degree if held is None else _shift_degree(ks, indices)
            held = shared[indices] = cap, _shift_matrix(indices, cap)
        cut = partial(held[1], degree=degree)
        return _reader(_points(ks[-2:]), cut, indices, verify=verify)(ks)

    return leaf


# the narrowest multiset, and the narrowest table, that the shifted trace
# reads faster than the point windows (see the module docstring)
_SHIFTED_WIDTH = 6
_SHIFTED_TABLE_WIDTH = 4


def correlator_leaf(verify: bool):
    """The leaf of single correlators: point_leaf below width 6 and
    shifted_leaf from width 6 up."""
    point, shifted = point_leaf(verify), shifted_leaf(verify)
    return lambda ks: (shifted if len(ks) >= _SHIFTED_WIDTH else point)(ks)


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
) -> CorrelatorTable:
    """Every width-n correlator with all indices in [k_min, k_max].

    Each multiset with a genus goes through the reduction, whose leaves lie
    in [k_lo, k_max], k_lo = max(k_min, 2): a string or dilaton step never
    leaves [k_min, k_max].  Each leaf is read from one trace of the box
    [k_lo, k_max]^w: below width 4 the width-m leaf at w = m and the empty
    shift, and from width 4 up every leaf at w = 2 and the shift of every
    index in [k_lo, k_max], exact to degree n - 2.  Each trace runs once,
    when the first key that needs it does.
    """
    if n < 1:
        raise ValueError("width must be positive")
    if k_min < 0 or k_max < k_min:
        raise ValueError("bad index range")
    k_lo = max(k_min, 2)
    shift = range(k_lo, k_max + 1) if n >= _SHIFTED_TABLE_WIDTH else ()

    @cache
    def trace(w):
        build = _shift_matrix(shift, n - 2) if shift else m_matrix
        return _reader([(-k_max - 1, -k_lo - 1)] * w, build, shift, verify=verify)

    value = reducer(lambda ks: trace(2 if shift else len(ks))(ks))
    table = CorrelatorTable(n=n, k_min=k_min, k_max=k_max)
    for ks in combinations_with_replacement(range(k_min, k_max + 1), n):
        if genus(ks) is not None and (v := value(ks)):
            table.entries[ks] = v
    return table


__all__ = [
    "CorrelatorTable",
    "DeformedWave",
    "correlator",
    "deformed_wave",
    "fz_c",
    "fz_q",
    "genus",
    "m_kappa_matrix",
    "m_matrix",
    "m_matrix_z",
    "n_point_table",
    "one_point",
    "one_point_series",
    "pair_series",
]
