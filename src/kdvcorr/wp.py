"""Mixed psi-kappa intersection numbers and Weil-Petersson volume polynomials.

Two independent routes are implemented.

Route one (residues): inserting kappa classes is equivalent to extracting
extra negative powers from wider psi-correlator generating functions,

    sum_k <kappa_lam tau_k...> prod (2k_i+1)!!/z_i^{2k_i+2}
      = (-1)^{l(lam)} sum_{|mu|=|lam|} (L_{lam,mu}/m(mu)!) (-1)^{l(mu)}
        [prod_i w_i^{-2 mu_i - 4}] F_{l(mu)+n}(w, z) / prod_i (2 mu_i + 3)!!

expanded in the region |w_1| > ... > |w_l| > |z_1| > ... > |z_n|: each mu
term is the psi correlator <tau_{mu_1+1} ... tau_{mu_l+1} tau_k...>, read
from one wk.reducer with point leaves, so a multiset that several terms
reduce to is traced once.  L_{lam,mu} = m(lam)! [s_lam] prod_i h_{mu_i}(s)
is read off the series of the shift T_{k+1} = -h_k(-s) that `kappa_times`
gives, so route one is the Taylor expansion of F at the shift where route two
solves the wave.

For a single kappa the w-extraction collapses to the closed trace

    sum_k <kappa_j tau_k> (2k+1)!!/z^{2k+2}
      = Tr([(1/2z) d/dz (z^{2j+2} M(z))]_+ M(z))/(2j+3)!! - z^{2j+2}/(2j+1)!!

with []_+ the polynomial part.

Route two (deformed wave): the matrix-resolvent formula holds for any KdV
tau-function, so at any point of the KdV times.  `deformed_wave` takes it as
a time shift T(s) = {a: T_a(s)}, s-polynomials with no constant term, and
solves psi = psi(z; T(s)) and psi_x there.  The n-point functions follow from
the same cyclic trace engine run over the s-polynomial ring with

    M^kappa = M(z; T(s)) = [[-(psi psi_xb + psib psi_x)/2, -psi psib],
                            [psi_x psi_xb, (psi psi_xb + psib psi_x)/2]],

Xb := X(-z).  The deformed wave A = E psi, B = E psi_x, with
E(z;s) = exp(-sum_a T_a(s) z^{2a+1}/(2a+1)!!), gives the same entries, as
E(z) E(-z) = 1.  The one-point function reads A and B (`f_kappa_1`): psi
alone gives it only up to the polynomial (log E)'.  The partition function
with kappa couplings s is the psi-class one at the shift T_{k+1} = -h_k(-s)
(`kappa_times`).  The Weil-Petersson slice s = (s_1, 0, ...) is the
one-variable shift T_{k+1} = -(-s_1)^k/k!, so `wp_volume` runs the whole
route over polynomials in s_1 alone.  A psi shift T_a = s_1 reads
<tau_a^m tau_b tau_c> as m! times the s_1^m coefficient of the two-point
function.

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

Time derivatives of the wave function stay inside the module
span{psi, psi_x} over differential polynomials:

    d_{t_k} psi   = alpha_k psi + beta_k psi_x,
    d_{t_k} psi_x = gamma_k psi + delta_k psi_x,

    beta_k  = (z^{2k} + sum_{j<k} r_j z^{2(k-1-j)})/(2k+1)!!,
    alpha_k = -(1/2) (sum_{j<k} (d_x r_j) z^{2(k-1-j)})/(2k+1)!!,
    gamma_k = d_x alpha_k + (z^2 - 2u) beta_k,      delta_k = -alpha_k,

with r_j = (2j+1)!! Omega_j.  Evaluating a chain of these flows at the jet
values u = 0, u_x = 1 (all higher zero) against the basis (c(z), q(z)) gives
the pair (P, Q) of d_{t_{mu_1+1}} ... psi |_{t=0} (`wave_flow_pair`), an
independent route to the same wave that `selftest` and the tests check it
against.  Every wave pair in this module, flow states included, is a pair
of exact LaurentSeries in z (low=None).

The Kac-Schwarz operator S = (1/z) d_z - 1/(2 z^2) - z acts on such pairs by
S(P c + Q q) = ((1/z) P' - z Q) c + ((1/z) Q' - z P - Q/z^2) q, since
S c = -z q and S(z q) = -z^2 c.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import prod

from . import wk
from .diffpoly import DiffPoly, _omega_pieces, flow_derivative, omega
from .npoint import npoint_window
from .partitions import (
    SPoly,
    h_polynomials,
    l_entry,
    monomial_weight,
    mult_factorial,
    negate_variables,
    partition_to_monomial,
    partitions_of,
)
from .rationals import factorial, odd_double_factorial, rat
from .series import LaurentSeries, add_into

# ---------------------------------------------------------------------------
# wave-pair flow machinery: a state (a, b) stands for a psi + b psi_x, with a
# and b exact Laurent series in z over differential polynomials


@cache
def _flow_coefficients(k: int) -> tuple[LaurentSeries, ...]:
    """(alpha_k, beta_k, gamma_k, delta_k) as exact series over DiffPoly."""
    nf = rat(1, odd_double_factorial(k))
    u = DiffPoly.jet(0)
    alpha: dict = {}
    beta: dict = {2 * k: DiffPoly.const(nf)}
    gamma: dict = {2 * k + 2: DiffPoly.const(nf), 2 * k: (-2 * nf) * u}
    for j in range(k):
        r = odd_double_factorial(j) * omega(j)  # X_j / 4^j
        dx, dxx_4u = _omega_pieces(j)  # d_x X_j and X_j'' + 4 u X_j
        w = -nf / (2 * 4**j)
        e = 2 * (k - 1 - j)
        add_into(alpha, e, w * dx)
        add_into(beta, e, nf * r)
        add_into(gamma, e + 2, nf * r)
        add_into(gamma, e, w * dxx_4u)
    alpha = LaurentSeries(alpha)
    return alpha, LaurentSeries(beta), LaurentSeries(gamma), -alpha


def _flow_apply(state: tuple, k: int) -> tuple[LaurentSeries, LaurentSeries]:
    """d/dt_k of a state (a, b) representing a psi + b psi_x."""
    a, b = state
    da, db = (
        LaurentSeries({e: flow_derivative(c, k) for e, c in s.coefficients.items()})
        for s in state
    )
    alpha, beta, gamma, delta = _flow_coefficients(k)
    return da + (a * alpha + b * gamma), db + (a * beta + b * delta)


# the topological point t = 0: u = 0, u_x = 1, all higher jets 0
WK_JETS = (rat(0), rat(1))


def _evaluate_pair(state: tuple) -> tuple[LaurentSeries, LaurentSeries]:
    """Evaluate a wave-pair state at the origin, against the (c, q) basis.

    psi |_0 = c(z) and psi_x |_0 = z q(z), so the q-component picks up one
    power of z.
    """
    p, q = (
        LaurentSeries(
            {e: c.evaluate_at_jets(WK_JETS) for e, c in s.coefficients.items()}
        )
        for s in state
    )
    return p, q.shift(1)


def wave_flow_pair(mu, with_x: bool = False) -> tuple[LaurentSeries, LaurentSeries]:
    """(P, Q) of d_{t_{mu_1+1}} ... d_{t_{mu_l+1}} psi |_{t=0} (= P c + Q q).

    with_x prepends one extra d_x (= d_{t_0}), giving the same derivative of
    psi_x instead.
    """
    if any(m < 0 for m in mu):
        raise ValueError("negative flow index")
    state = (LaurentSeries({0: DiffPoly.const(1)}), LaurentSeries.zero())
    for k in [part + 1 for part in mu] + [0] * with_x:
        state = _flow_apply(state, k)
    return _evaluate_pair(state)


def ks_pair(p: LaurentSeries, q: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    """Kac-Schwarz operator on a (P, Q) pair against the (c, q) basis."""
    return (
        p.derivative().shift(-1) - q.shift(1),
        q.derivative().shift(-1) - p.shift(1) - q.shift(-2),
    )


# ---------------------------------------------------------------------------
# deformed wave data (route two)


@dataclass
class DeformedWave:
    """The wave at a time shift T(s) as the triangular solve leaves it: the
    (P, Q) pairs of psi(z; T(s)) and psi_x(z; T(s)), s-polynomials carrying
    the wave's weight cap; the prefactor E(z;s); and `variables`, the j of
    every s_j in T(s), the only variables the wave knows."""

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


def _pair_products(first: tuple, second: tuple) -> tuple[LaurentSeries, ...]:
    """P1 P2b, P1 Q2b, Q1 P2b, Q1 Q2b of (P1 c + Q1 q)(z) (P2 c + Q2 q)(-z)."""
    p1, q1 = first
    p2, q2 = (s.substitute_negate() for s in second)
    return p1 * p2, p1 * q2, q1 * p2, q1 * q2


def kappa_times(cap: int) -> dict:
    """The time shift of the kappa couplings, {k+1: -h_k(-s)} for
    1 <= k <= cap: the wave at it is the kappa-coupled wave."""
    hs = h_polynomials(cap)
    return {k + 1: -negate_variables(hs[k]) for k in range(1, cap + 1)}


def _wp_times(cap: int) -> dict:
    """The kappa shift at s = (s_1, 0, ...): {k+1: -(-s_1)^k/k!}."""
    return {
        k + 1: SPoly({(k,): rat((-1) ** (k + 1), factorial(k))})
        for k in range(1, cap + 1)
    }


def _exp_prefactor(times: dict, cap: int) -> LaurentSeries:
    """E(z;s) = exp(-sum_a T_a z^{2a+1}/(2a+1)!!) to total s-weight cap."""
    t = LaurentSeries(
        {2 * a + 1: -p * rat(1, odd_double_factorial(a)) for a, p in times.items()}
    )
    acc = power = LaurentSeries({0: SPoly.const(1).truncate_weight(cap)})
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
    bases = wk.fz_c(-top), wk.fz_q(-top)
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
    """psi and psi_x at the time shift `times` = {a: T_a(s)}, as s-polynomial
    pairs exact to total s-weight cap, by the triangular solve of the module
    docstring, with their prefactor E.  Each T_a must vanish at s = 0 (E_0 = 1);
    `kappa_times(cap)` gives the kappa-coupled wave."""
    if cap < 0:
        raise ValueError("negative weight cap")
    for a, p in times.items():
        if a < 0:
            raise ValueError(f"time index must be non-negative, got {a}")
        if () in p.terms:
            raise ValueError(f"the shift of t_{a} has a constant term")
    e = _exp_prefactor(times, cap)
    grades: list = [{} for _ in range(cap + 1)]  # E_w: {z-exponent: {mono: c}}
    for z_exp, c in e.coefficients.items():
        for mono, v in c.terms.items():
            grades[monomial_weight(mono)].setdefault(z_exp, {})[mono] = v
    grades = [LaurentSeries({z: SPoly(t) for z, t in g.items()}) for g in grades]
    # [z^-1] of A_w needs each E_e X_{w-e} down to z^{-deg E_e - 1}
    low = -_top(e) - 1
    # the (P_w, Q_w) of psi and of psi_x, from c and z q at weight 0, and
    # their expansions X_w = P_w c + Q_w q and Y_w
    one, zero = LaurentSeries({0: SPoly.const(1)}), LaurentSeries.zero()
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
    capped = SPoly.const(1).truncate_weight(cap)
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
    return (p * wk.fz_c(base_low) + q * wk.fz_q(base_low)).truncate(low)


# ---------------------------------------------------------------------------
# generating functions of mixed correlators (route two)


def f_kappa_1(dw: DeformedWave, low: int) -> dict:
    """Coefficients {z-exponent: s-polynomial} of F_1 with kappa couplings,

    F_1(z;s) = (G(z) - G(-z))/(4z),   G(z) = B'(z) A(-z) - A'(z) B(-z),

    from A and B of the deformed wave `dw` and exact to its weight cap.
    G(-z) is G with z -> -z, so the numerator takes two series products.
    """
    a, b = (pair_series(dw.pair(which), low - 4) for which in "AB")
    g = b.derivative() * a.substitute_negate() - a.derivative() * b.substitute_negate()
    f = (g - g.substitute_negate()).shift(-1) * rat(1, 4)
    return {e: c for e in range(low, _top(f) + 1) if (c := f.coefficient(e))}


def m_kappa_matrix(dw: DeformedWave, floor: int) -> list[list[dict]]:
    """M(z; T(s)) with kappa couplings as {y-exponent: s-polynomial} dicts,
    from the deformed wave `dw` and exact to its weight cap.

    Entries are built from the 2x2 quadratic form in psi and psi_x (E
    cancels, see the module docstring): their exact pair products times
    c c-bar, c q-bar, q c-bar and q q-bar, which alone depend on the floor
    and are read off M itself (`wk.wave_products`).
    """
    cc, cq, qc, qq = wk.wave_products(2 * floor - 2 * _top(*dw.psi, *dw.psi_x) - 2)

    def expand(first, second):
        # (p1 c + q1 q)(z) * (p2 c + q2 q)(-z)
        p1p2, p1q2, q1p2, q1q2 = _pair_products(first, second)
        return p1p2 * cc + p1q2 * cq + q1p2 * qc + q1q2 * qq

    # psi_x(z) psi(-z) is psi(z) psi_x(-z) with z -> -z
    cross = expand(dw.psi, dw.psi_x)
    m11 = (cross + cross.substitute_negate()) * rat(-1, 2)
    m12 = expand(dw.psi, dw.psi) * -1
    m21 = expand(dw.psi_x, dw.psi_x)

    def to_y(series):
        out = {}
        for e in range(2 * floor, _top(series) + 1):
            if c := series.coefficient(e):  # raises below the series' floor
                if e % 2:
                    raise ArithmeticError("odd power in an even matrix entry")
                out[e // 2] = c
        return out

    h = to_y(m11)
    return [[h, to_y(m12)], [to_y(m21), {e: -c for e, c in h.items()}]]


def f_kappa_n(
    n: int,
    windows,
    dw: DeformedWave,
    *,
    verify: bool = False,
    workers: int = 1,
) -> dict:
    """n-point function with kappa couplings over a target exponent box, from
    the deformed wave `dw` and exact to its weight cap.

    Returns {(e_1, ..., e_n): s-polynomial} in y-exponents, n >= 2.  The
    matrices are built in this process, so pool workers receive them whole.
    """
    if n < 2:
        raise ValueError("use f_kappa_1 for the one-point function")
    return npoint_window(
        n,
        windows,
        lambda fl: m_kappa_matrix(dw, fl),
        verify=verify,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# route one: residue extraction from psi-class generating functions


def mixed_genus(lam, ks) -> int | None:
    """Genus forced by the dimension constraint, or None when no genus fits;
    kappa_j counts as tau_{j+1} in the dimension."""
    return wk.genus(tuple(ks) + tuple(j + 1 for j in lam))


def mixed_correlator(lam, ks, *, verify: bool = False):
    """<kappa_{lam_1} ... kappa_{lam_l} tau_{k_1} ... tau_{k_n}> exactly.

    lam is a partition of kappa indices (possibly empty), ks the tau indices.
    The value is the coefficient of s_lam (not the plain s-derivative) of the
    kappa-coupled free energy, i.e. the derivative divided by m(lam)!; for
    repeated kappa indices the two conventions differ by that factorial.
    """
    lam = tuple(sorted((int(x) for x in lam), reverse=True))
    ks = tuple(int(k) for k in ks)
    if any(x < 1 for x in lam):
        raise ValueError("kappa indices must be positive")
    if any(k < 0 for k in ks):
        raise ValueError("negative index")
    if not lam:
        if not ks:
            raise ValueError("need at least one insertion")
        return wk.correlator(ks, verify=verify)
    if mixed_genus(lam, ks) is None:
        return rat(0)
    value = wk.reducer(wk.point_leaf(verify))
    total = rat(0)
    for mu in partitions_of(sum(lam)):
        lcoef = l_entry(lam, mu)
        if lcoef:
            scale = rat((-1) ** (len(lam) + len(mu)) * lcoef,
                        mult_factorial(lam) * mult_factorial(mu))
            total += scale * value(tuple(sorted(tuple(m + 1 for m in mu) + ks)))
    return total


def kappa_linear_series(j: int, low: int) -> LaurentSeries:
    """sum_k <kappa_j tau_k> (2k+1)!!/z^{2k+2} as a closed matrix trace."""
    if j < 1:
        raise ValueError("kappa index must be positive")
    m = wk.m_matrix_z(low - 2 * j - 4)
    plus = [
        [
            LaurentSeries(
                {
                    e + 2 * j: rat(e + 2 * j + 2, 2) * c
                    for e, c in ent.coefficients.items()
                    if e + 2 * j >= 0 and (e + 2 * j + 2) * c
                }
            )
            for ent in row
        ]
        for row in m
    ]
    # Tr(plus M) = sum_{i,k} plus[i][k] M[k][i], no off-diagonal product formed
    tr = (
        plus[0][0] * m[0][0] + plus[0][1] * m[1][0]
        + (plus[1][0] * m[0][1] + plus[1][1] * m[1][1])
    ) * rat(1, odd_double_factorial(j + 1))
    correction = LaurentSeries.monomial(2 * j + 2, rat(-1, odd_double_factorial(j)))
    return (tr + correction).truncate(low)


def kappa_linear(j: int, k: int):
    """<kappa_j tau_k> via the closed single-kappa trace formula."""
    if j < 1:
        raise ValueError("kappa index must be positive")
    if k < 0:
        raise ValueError("negative index")
    if mixed_genus((j,), (k,)) is None:
        return rat(0)
    series = kappa_linear_series(j, -2 * k - 2)
    return series.coefficient(-2 * k - 2) / odd_double_factorial(k)


# ---------------------------------------------------------------------------
# Weil-Petersson volume polynomials (s = (s_1, 0, 0, ...))


@dataclass
class WpVolume:
    """Exact coefficient data of the genus-g n-point volume polynomial.

    entries maps (d, (k_1 <= ... <= k_n)) with d + sum k = 3g - 3 + n to
    <kappa_1^d tau_{k_1} ... tau_{k_n}>.
    """

    g: int
    n: int
    entries: dict

    def display_coefficient(self, d: int, ks):
        """Coefficient of s^d / prod z_i^{2k_i+2} in the generating series."""
        v = self.entries[(d, tuple(sorted(ks)))] / factorial(d)
        return v * prod(odd_double_factorial(k) for k in ks)

    def volume_coefficient(self, d: int, ks):
        """Coefficient of prod L_i^{2k_i} in the volume polynomial
        (at kappa-coupling degree d)."""
        v = self.entries[(d, tuple(sorted(ks)))] / factorial(d)
        return v / prod(factorial(k) for k in ks)

    def sorted_items(self):
        return sorted(self.entries.items())


def wp_volume(
    g: int,
    n: int,
    *,
    verify: bool = False,
    workers: int = 1,
) -> WpVolume:
    """All <kappa_1^d tau_{k_1} ... tau_{k_n}> with d + sum k = 3g - 3 + n.

    `verify` re-checks the n >= 2 trace under widened budgets.  At n = 1 the
    volume is read from the one-point quadratic form, which has no truncation
    budget, so there is nothing to re-check.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    dim = 3 * g - 3 + n
    out = WpVolume(g=g, n=n, entries={})
    if dim < 0:
        return out
    # only the s_1^d terms are read, so the wave is built at s = (s_1, 0, ...)
    dw = deformed_wave(_wp_times(dim), dim)
    if n == 1:
        coeffs = f_kappa_1(dw, -2 * dim - 2)
        keys = {(k,): -2 * k - 2 for k in range(dim + 1)}
    else:
        coeffs = f_kappa_n(n, [(-dim - 1, -1)] * n, dw, verify=verify, workers=workers)
        keys = {
            ks: tuple(-k - 1 for k in ks)
            for ks in combinations_with_replacement(range(dim + 1), n)
        }
    for ks, key in keys.items():
        d = dim - sum(ks)
        sp = coeffs.get(key)
        if d < 0 or sp is None:
            continue
        v = sp.coefficient(partition_to_monomial((1,) * d))
        if v:
            out.entries[(d, ks)] = (
                v * factorial(d) / prod(odd_double_factorial(k) for k in ks)
            )
    return out


__all__ = [
    "DeformedWave",
    "WpVolume",
    "deformed_wave",
    "f_kappa_1",
    "f_kappa_n",
    "kappa_linear",
    "kappa_times",
    "kappa_linear_series",
    "ks_pair",
    "m_kappa_matrix",
    "mixed_correlator",
    "mixed_genus",
    "pair_series",
    "wave_flow_pair",
    "wp_volume",
]
