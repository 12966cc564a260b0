"""Mixed psi-kappa intersection numbers and Weil-Petersson volume polynomials.

Two independent routes are implemented.

Route one (residues): inserting kappa classes is equivalent to extracting
extra negative powers from wider psi-correlator generating functions,

    sum_k <kappa_lam tau_k...> prod (2k_i+1)!!/z_i^{2k_i+2}
      = (-1)^{l(lam)} sum_{|mu|=|lam|} (L_{lam,mu}/m(mu)!) (-1)^{l(mu)}
        [prod_i w_i^{-2 mu_i - 4}] F_{l(mu)+n}(w, z) / prod_i (2 mu_i + 3)!!

expanded in the region |w_1| > ... > |w_l| > |z_1| > ... > |z_n|: each mu
term is the psi correlator <tau_{mu_1+1} ... tau_{mu_l+1} tau_k...>, read
from one wk.reducer with the leaves of wk.correlator_leaf (a point window
below width 6, a shifted two-point trace from width 6 up, with one wave per
shifted index set), so a multiset that several terms reduce to is traced
once.  L_{lam,mu} = m(lam)! [s_lam] prod_i h_{mu_i}(s)
is read off the series of the shift T_{k+1} = -h_k(-s) that `kappa_times`
gives, so route one is the Taylor expansion of F at the shift where route two
solves the wave.

For a single kappa the w-extraction collapses to the closed trace

    sum_k <kappa_j tau_k> (2k+1)!!/z^{2k+2}
      = Tr([(1/2z) d/dz (z^{2j+2} M(z))]_+ M(z))/(2j+3)!! - z^{2j+2}/(2j+1)!!

with []_+ the polynomial part.

Route two (deformed wave): the matrix-resolvent formula holds at any point
of the KdV times, and wk's `deformed_wave` solves the wave at a time shift
T(s) over the ring of its polynomials.  The partition function with kappa
couplings s is the psi-class one at the shift T_{k+1} = -h_k(-s)
(`kappa_times`), over SPoly, where s_j weighs j.  The n-point functions with
kappa couplings follow from the cyclic trace engine run over SPoly with
M^kappa = M(z; T(s)) = G M G^-1 (wk's `m_kappa_matrix`, whose module
docstring has the wave, G and the solve).  The one-point function reads the
deformed wave A = E psi and B = E psi_x (`f_kappa_1`): psi alone gives it
only up to the polynomial (log E)'.

The Weil-Petersson slice s = (s_1, 0, ...) is the one-variable shift
T_{k+1} = -(-s_1)^k/k!.  `wp_volume` reads n <= 2 from genus _BOX_GENUS = 4
up at it, n = 1 from the one-point function and n = 2 from the box
[-dim-1, -1]^2 of F_2, and every other volume as d! times route one at
lam = (1^d), one reduction per volume.  The leaves of route one depend on
the genus alone, and from genus 4 up many are wide enough for a shifted
trace, so its cost hardly grows with n; the box grows steeply with n.
Cold, in process on 2 cores, route one against the box read (2,2) 2-3 ms
against 18-20 ms, (3,3) 0.025-0.032 s against 0.27-0.28 s, (5,3) 0.58-0.64 s
against 4.6-4.7 s and (7,3) 11-12 s against 40 s.  At n <= 2 the box is
about even at genus 4, (4,1) 0.10-0.11 s against 0.067-0.076 s and (4,2)
0.10-0.12 s against 0.12-0.13 s, and wins from genus 5 up: (5,2)
0.45-0.51 s against 0.26-0.28 s and (6,2) 2.4-2.6 s against 0.54-0.73 s.

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
    mult_factorial,
    negate_variables,
    partitions_of,
)
from .rationals import factorial, odd_double_factorial, rat
from .series import LaurentSeries, add_into
from .wk import (
    DeformedWave,
    _entry,
    _top,
    deformed_wave,
    m_kappa_matrix,
    pair_series,
)

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
# the kappa time shifts (route two)


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


def f_kappa_n(n: int, windows, dw: DeformedWave, *, verify: bool = False) -> dict:
    """n-point function with kappa couplings over a target exponent box, from
    the deformed wave `dw` and exact to its weight cap.

    Returns {(e_1, ..., e_n): s-polynomial} in y-exponents, n >= 2.
    """
    if n < 2:
        raise ValueError("use f_kappa_1 for the one-point function")
    return npoint_window(n, windows, lambda fl: m_kappa_matrix(dw, fl), verify=verify)


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
    return _route_one(wk.reducer(wk.correlator_leaf(verify)), lam, ks)


def _route_one(value, lam, ks):
    """<kappa_lam tau_K>/m(lam)! of a sorted partition lam: the correlators
    <tau_{mu+1} tau_K> read from `value`, a wk.reducer, weighed by L_{lam,mu}."""
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


# the genus from which n <= 2 reads the box: measured against route one, even
# at genus 4 and faster from genus 5 up (see the module docstring)
_BOX_GENUS = 4


def wp_volume(g: int, n: int, *, verify: bool = False) -> WpVolume:
    """All <kappa_1^d tau_{k_1} ... tau_{k_n}> with d + sum k = 3g - 3 + n.

    From genus _BOX_GENUS up, n = 1 reads the one-point form of the wave at
    s = (s_1, 0, ...) and n = 2 the trace of the box [-dim-1, -1]^2; every
    other volume is d! times route one (see the module docstring).  `verify`
    re-checks the box, or each traced psi leaf, under widened budgets.  The
    one-point form has no truncation budget, so at n = 1 from genus
    _BOX_GENUS up there is nothing to re-check.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    dim = 3 * g - 3 + n
    out = WpVolume(g=g, n=n, entries={})
    if dim < 0:
        return out
    if n > 2 or g < _BOX_GENUS:
        value = wk.reducer(wk.correlator_leaf(verify))

        def read(ks, d):
            return factorial(d) * _route_one(value, (1,) * d, ks)
    else:
        dw = deformed_wave(_wp_times(dim), dim)
        if n == 1:
            # F_1 is even in z, so z^{-2k-2} is the y-exponent -k-1
            coeffs = {(e // 2,): c for e, c in f_kappa_1(dw, -2 * dim - 2).items()}
        else:
            coeffs = f_kappa_n(n, [(-dim - 1, -1)] * n, dw, verify=verify)

        def read(ks, d):
            return _entry(coeffs, ks, (d,))
    for ks in combinations_with_replacement(range(dim + 1), n):
        d = dim - sum(ks)
        if d >= 0 and (v := read(ks, d)):
            out.entries[(d, ks)] = v
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
