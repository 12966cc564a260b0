"""Mixed psi-kappa intersection numbers and Weil-Petersson volume polynomials.

Two independent routes are implemented.

Route one (residues): inserting kappa classes is equivalent to extracting
extra negative powers from wider psi-correlator generating functions,

    sum_k <kappa_lam tau_k...> prod (2k_i+1)!!/z_i^{2k_i+2}
      = (-1)^{l(lam)} sum_{|mu|=|lam|} (L_{lam,mu}/m(mu)!) (-1)^{l(mu)}
        [prod_i w_i^{-2 mu_i - 4}] F_{l(mu)+n}(w, z) / prod_i (2 mu_i + 3)!!

expanded in the region |w_1| > ... > |w_l| > |z_1| > ... > |z_n|.  For a
single kappa the w-extraction collapses to the closed trace

    sum_k <kappa_j tau_k> (2k+1)!!/z^{2k+2}
      = Tr([(1/2z) d/dz (z^{2j+2} M(z))]_+ M(z))/(2j+3)!! - z^{2j+2}/(2j+1)!!

with []_+ the polynomial part.

Route two (deformed wave): the partition function with kappa couplings s is
the psi-class one with shifted times t_{k+1} -> t_{k+1} - h_k(-s), so its
wave-function data at t = 0 is

    A(z;s) = E(z;s) sum_lam ((-1)^{l} s_lam / m(lam)!)
             sum_{|mu|=|lam|} L_{lam,mu} ((-1)^{l(mu)}/m(mu)!)
             d_{t_{mu_1+1}} ... d_{t_{mu_l+1}} psi |_{t=0},

    E(z;s) = exp(sum_{k>=1} h_k(-s) z^{2k+3}/(2k+3)!!),

same for B with psi_x, and the n-point functions follow from the one-point
quadratic form (n = 1) or the same cyclic trace engine run over the
s-polynomial coefficient ring with

    M^kappa = [[-(A Bb + Ab B)/2, -A Ab], [B Bb, (A Bb + Ab B)/2]],

Xb := X(-z).  Time derivatives of the wave function stay inside the module
span{psi, psi_x} over differential polynomials:

    d_{t_k} psi   = alpha_k psi + beta_k psi_x,
    d_{t_k} psi_x = gamma_k psi + delta_k psi_x,

    beta_k  = (z^{2k} + sum_{j<k} r_j z^{2(k-1-j)})/(2k+1)!!,
    alpha_k = -(1/2) (sum_{j<k} (d_x r_j) z^{2(k-1-j)})/(2k+1)!!,
    gamma_k = d_x alpha_k + (z^2 - 2u) beta_k,      delta_k = -alpha_k,

with r_j = (2j+1)!! Omega_j.  Everything is an exact finite Laurent
polynomial in z over differential polynomials; evaluating at the jet values
u = 0, u_x = 1 (all higher zero) and writing the result against the basis
(c(z), q(z)) with psi|_0 = c and psi_x|_0 = z q gives exact pairs (P, Q).

The Kac-Schwarz operator S = (1/z) d_z - 1/(2 z^2) - z acts on such pairs by
S(P c + Q q) = ((1/z) P' - z Q) c + ((1/z) Q' - z P - Q/z^2) q, since
S c = -z q and S(z q) = -z^2 c.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import wk
from .diffpoly import DiffPoly, flow_derivative, omega
from .npoint import npoint_window
from .partitions import (
    SPoly,
    h_polynomials,
    l_entry,
    mult_factorial,
    negate_variables,
    partition_to_monomial,
    partitions_of,
    weight_cap,
)
from .rationals import factorial, odd_double_factorial, rat
from .series import LaurentSeries, add_into

# ---------------------------------------------------------------------------
# wave-pair flow machinery: states are pairs of {z-exponent: DiffPoly} dicts,
# multiplied as exact Laurent polynomials (LaurentSeries with no floor)


def _flow_coefficients(k: int) -> tuple[dict, dict, dict, dict]:
    """(alpha_k, beta_k, gamma_k, delta_k) as {z-exponent: DiffPoly}."""
    nf = rat(1, odd_double_factorial(k))
    u = DiffPoly.jet(0)
    alpha: dict = {}
    beta: dict = {2 * k: DiffPoly.const(nf)}
    gamma: dict = {2 * k + 2: DiffPoly.const(nf), 2 * k: (-2 * nf) * u}
    for j in range(k):
        r = odd_double_factorial(j) * omega(j)
        e = 2 * (k - 1 - j)
        add_into(alpha, e, (-nf / 2) * r.d_x())
        add_into(beta, e, nf * r)
        add_into(gamma, e + 2, nf * r)
        add_into(gamma, e, (-nf / 2) * r.d_x_pow(2) - (2 * nf) * (u * r))
    delta = {e: -c for e, c in alpha.items()}
    return alpha, beta, gamma, delta


def flow_apply(state: tuple[dict, dict], k: int) -> tuple[dict, dict]:
    """d/dt_k of a state (a, b) representing a psi + b psi_x."""
    a, b = (LaurentSeries("z", d) for d in state)
    da, db = (
        LaurentSeries("z", {e: flow_derivative(c, k) for e, c in d.items()})
        for d in state
    )
    alpha, beta, gamma, delta = (
        LaurentSeries("z", d) for d in _flow_coefficients(k)
    )
    new_a = da + (a * alpha + b * gamma)
    new_b = db + (a * beta + b * delta)
    return new_a.coefficients, new_b.coefficients


# the topological point t = 0: u = 0, u_x = 1, all higher jets 0
WK_JETS = (rat(0), rat(1))


def _evaluate_pair(state: tuple[dict, dict]) -> tuple[dict, dict]:
    """Evaluate a wave-pair state at the origin, against the (c, q) basis.

    psi |_0 = c(z) and psi_x |_0 = z q(z), so the q-component picks up one
    power of z.
    """
    a, b = state
    p = {e: v for e, c in a.items() if (v := c.evaluate_at_jets(WK_JETS))}
    q = {e + 1: v for e, c in b.items() if (v := c.evaluate_at_jets(WK_JETS))}
    return p, q


_FLOW_CACHE: dict = {}


def wave_flow_pair(mu, with_x: bool = False) -> tuple[dict, dict]:
    """(P, Q) of d_{t_{mu_1+1}} ... d_{t_{mu_l+1}} psi |_{t=0} (= P c + Q q).

    with_x prepends one extra d_x (= d_{t_0}), giving the same derivative of
    psi_x instead.
    """
    mu = tuple(sorted(mu, reverse=True))
    if any(m < 0 for m in mu):
        raise ValueError("negative flow index")
    key = (mu, with_x)
    if key not in _FLOW_CACHE:
        state = ({0: DiffPoly.const(1)}, {})
        for part in mu:
            state = flow_apply(state, part + 1)
        if with_x:
            state = flow_apply(state, 0)
        _FLOW_CACHE[key] = _evaluate_pair(state)
    p, q = _FLOW_CACHE[key]
    return dict(p), dict(q)


def ks_pair(p: dict, q: dict) -> tuple[dict, dict]:
    """Kac-Schwarz operator on a (P, Q) pair against the (c, q) basis."""
    new_p: dict = {}
    new_q: dict = {}
    for e, c in p.items():
        if e:
            add_into(new_p, e - 2, e * c)
        add_into(new_q, e + 1, -c)
    for e, c in q.items():
        if e:
            add_into(new_q, e - 2, e * c)
        add_into(new_p, e + 1, -c)
        add_into(new_q, e - 2, -c)
    return new_p, new_q


# ---------------------------------------------------------------------------
# deformed wave data (route two)


@dataclass
class DeformedWave:
    """(P, Q) pairs of A(z;s) and B(z;s) with s-polynomial coefficients."""

    cap: int
    a_p: dict
    a_q: dict
    b_p: dict
    b_q: dict

    def component(self, lam, which: str = "A") -> tuple[dict, dict]:
        """Laurent coefficients of the s_lam component, as rational dicts."""
        lam = tuple(sorted(lam, reverse=True))
        mono = partition_to_monomial(lam)
        p, q = (self.a_p, self.a_q) if which == "A" else (self.b_p, self.b_q)
        cp = {e: v for e, c in p.items() if (v := c.coefficient(mono))}
        cq = {e: v for e, c in q.items() if (v := c.coefficient(mono))}
        return cp, cq


def _exp_prefactor(cap: int) -> LaurentSeries:
    """E(z;s) = exp(sum h_k(-s) z^{2k+3}/(2k+3)!!) to total s-weight cap."""
    hs = h_polynomials(cap)
    t = LaurentSeries(
        "z",
        {
            2 * k + 3: negate_variables(hs[k]) * rat(1, odd_double_factorial(k + 1))
            for k in range(1, cap + 1)
        },
    )
    acc = power = LaurentSeries("z", {0: SPoly.const(1)})
    for m in range(1, cap + 1):
        power = power * t
        if power.is_zero_to_truncation():
            break
        acc = acc + power * rat(1, factorial(m))
    return acc


def deformed_wave(cap: int) -> DeformedWave:
    """A(z;s), B(z;s) as s-polynomial pairs, exact to total s-weight cap."""
    if cap < 0:
        raise ValueError("negative weight cap")
    with weight_cap(cap):
        # a_p, a_q, b_p, b_q before the exponential prefactor
        parts = ({0: SPoly.const(1)}, {}, {}, {1: SPoly.const(1)})
        for w in range(1, cap + 1):
            for lam in partitions_of(w):
                front = rat(
                    (-1) ** len(lam), mult_factorial(lam)
                )
                s_mono = SPoly({partition_to_monomial(lam): front})
                for mu in partitions_of(w):
                    lcoef = l_entry(lam, mu)
                    if not lcoef:
                        continue
                    factor = s_mono * rat((-1) ** len(mu) * lcoef, mult_factorial(mu))
                    flows = wave_flow_pair(mu) + wave_flow_pair(mu, with_x=True)
                    for part, flow in zip(parts, flows):
                        for e, v in flow.items():
                            add_into(part, e, factor * v)
        e = _exp_prefactor(cap)
        return DeformedWave(
            cap, *((e * LaurentSeries("z", part)).coefficients for part in parts)
        )


def _pair_series(p: dict, q: dict, low: int, variable: str = "z") -> LaurentSeries:
    """Expand a (P, Q) pair into a truncated Laurent series P c + Q q."""
    top = max([e for e in p] + [e for e in q] + [0])
    base_low = low - top
    c = wk.fz_c(base_low, variable)
    qs = wk.fz_q(base_low, variable)
    pc = LaurentSeries(variable, p, low=None) if p else LaurentSeries.zero(variable)
    qc = LaurentSeries(variable, q, low=None) if q else LaurentSeries.zero(variable)
    return (pc * c + qc * qs).truncate(low)


def wave_series(
    dw: DeformedWave, which: str, low: int, variable: str = "z"
) -> LaurentSeries:
    """A(z;s) or B(z;s) as a truncated Laurent series over s-polynomials."""
    p, q = (dw.a_p, dw.a_q) if which == "A" else (dw.b_p, dw.b_q)
    return _pair_series(p, q, low, variable)


def wave_component_series(
    dw: DeformedWave, lam, which: str, low: int, variable: str = "z"
) -> LaurentSeries:
    """z-expansion of the s_lam component of A or B, rational coefficients."""
    p, q = dw.component(lam, which)
    return _pair_series(p, q, low, variable)


# ---------------------------------------------------------------------------
# generating functions of mixed correlators (route two)


def f_kappa_1(cap: int, low: int) -> dict:
    """Coefficients {z-exponent: s-polynomial} of F_1 with kappa couplings,

    F_1(z;s) = (-A(z) B'(-z) + B'(z) A(-z) + B(z) A'(-z) - A'(z) B(-z))/(4z).
    """
    with weight_cap(cap):
        dw = deformed_wave(cap)
        a = wave_series(dw, "A", low - 4)
        b = wave_series(dw, "B", low - 4)
        ab = a.substitute_negate()
        bb = b.substitute_negate()
        da = a.derivative()
        db = b.derivative()
        tot = (
            (a * db.substitute_negate()) * -1
            + db * ab
            + b * da.substitute_negate()
            + (da * bb) * -1
        )
        f = tot.shift(-1) * rat(1, 4)
        return {e: c for e, c in f.coefficients.items() if e >= low and c}


def m_kappa_matrix(dw: DeformedWave, floor: int) -> list[list[dict]]:
    """M with kappa couplings as {y-exponent: s-polynomial} dicts, from the
    deformed wave `dw` and exact to its weight cap.

    Entries are built from the 2x2 quadratic form in A, B using the closed
    hypergeometric product series for c c-bar, c q-bar, q c-bar, q q-bar.
    """
    with weight_cap(dw.cap):
        top = max(
            [e for d in (dw.a_p, dw.a_q, dw.b_p, dw.b_q) for e in d] + [0]
        )
        zlow = 2 * floor - 2 * top - 2
        cc = wk.product_cc(zlow)
        qq = wk.product_qq(zlow)
        cq = wk.product_cq(zlow)
        qc = wk.product_qc(zlow)

        def pair_product(p1, q1, p2, q2):
            # (p1 c + q1 q)(z) * (p2 c + q2 q)(-z)
            s1p = LaurentSeries("z", p1, low=None)
            s1q = LaurentSeries("z", q1, low=None)
            s2p = LaurentSeries("z", p2, low=None).substitute_negate()
            s2q = LaurentSeries("z", q2, low=None).substitute_negate()
            return (
                s1p * s2p * cc
                + s1p * s2q * cq
                + s1q * s2p * qc
                + s1q * s2q * qq
            )

        abb = pair_product(dw.a_p, dw.a_q, dw.b_p, dw.b_q)
        bab = pair_product(dw.b_p, dw.b_q, dw.a_p, dw.a_q)
        aab = pair_product(dw.a_p, dw.a_q, dw.a_p, dw.a_q)
        bbb = pair_product(dw.b_p, dw.b_q, dw.b_p, dw.b_q)
        m11 = (abb + bab) * rat(-1, 2)
        m12 = aab * -1
        m21 = bbb

        def to_y(series):
            out = {}
            for e, c in series.coefficients.items():
                if e % 2:
                    raise ArithmeticError("odd power in an even matrix entry")
                if e // 2 >= floor and c:
                    out[e // 2] = c
            return out

        h = to_y(m11)
        return [[h, to_y(m12)], [to_y(m21), {e: -c for e, c in h.items()}]]


def f_kappa_n(
    n: int,
    windows,
    cap: int,
    *,
    verify: bool = False,
    workers: int = 1,
    floor: int | None = None,
) -> dict:
    """n-point function with kappa couplings over a target exponent box.

    Returns {(e_1, ..., e_n): s-polynomial} in y-exponents, n >= 2.
    """
    if n < 2:
        raise ValueError("use f_kappa_1 for the one-point function")
    with weight_cap(cap):
        dw = deformed_wave(cap)
        return npoint_window(
            n,
            windows,
            lambda fl: m_kappa_matrix(dw, fl),
            verify=verify,
            workers=workers,
            floor=floor,
        )


# ---------------------------------------------------------------------------
# route one: residue extraction from psi-class generating functions


def mixed_genus(lam, ks) -> int | None:
    """Genus forced by the dimension constraint, or None when no genus fits."""
    num = sum(lam) + sum(ks) - len(ks) + 3
    if num % 3 or num < 0:
        return None
    return num // 3


def mixed_correlator(lam, ks, *, verify: bool = False, floor: int | None = None):
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
        return wk.correlator(ks, verify=verify, floor=floor)
    if mixed_genus(lam, ks) is None:
        return rat(0)
    total = rat(0)
    zs = sorted(ks, reverse=True)
    for mu in partitions_of(sum(lam)):
        lcoef = l_entry(lam, mu)
        if not lcoef:
            continue
        scale = rat((-1) ** (len(lam) + len(mu)) * lcoef,
                    mult_factorial(lam) * mult_factorial(mu))
        nvars = len(mu) + len(ks)
        if nvars == 1:
            coeff = wk.one_point_series(-2 * mu[0] - 4).coefficient(
                -2 * mu[0] - 4
            )
        else:
            windows = [(-m - 2, -m - 2) for m in mu] + [
                (-k - 1, -k - 1) for k in zs
            ]
            box = npoint_window(
                nvars, windows, wk.m_matrix, verify=verify, floor=floor
            )
            coeff = box.get(tuple(lo for lo, _ in windows), 0)
        for m in mu:
            coeff = coeff / odd_double_factorial(m + 1)
        total = total + scale * coeff
    for k in ks:
        total = total / odd_double_factorial(k)
    return rat(total)


def kappa_linear_series(j: int, low: int) -> LaurentSeries:
    """sum_k <kappa_j tau_k> (2k+1)!!/z^{2k+2} as a closed matrix trace."""
    if j < 1:
        raise ValueError("kappa index must be positive")
    m = wk.m_matrix_z(low - 2 * j - 4)
    plus = [
        [
            LaurentSeries(
                "z",
                {
                    e + 2 * j: rat(e + 2 * j + 2, 2) * c
                    for e, c in ent.coefficients.items()
                    if e + 2 * j >= 0 and (e + 2 * j + 2) * c
                },
                low=None,
            )
            for ent in row
        ]
        for row in m
    ]
    tr = (
        plus[0][0] * m[0][0]
        + plus[0][1] * m[1][0]
        + plus[1][0] * m[0][1]
        + plus[1][1] * m[1][1]
    )
    tr = tr * rat(1, odd_double_factorial(j + 1))
    correction = LaurentSeries(
        "z", {2 * j + 2: rat(-1, odd_double_factorial(j))}, low=None
    )
    return (tr + correction).truncate(low)


def kappa_linear(j: int, k: int):
    """<kappa_j tau_k> via the closed single-kappa trace formula."""
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
        ks = tuple(sorted(ks))
        v = self.entries[(d, ks)] / factorial(d)
        for k in ks:
            v = v * odd_double_factorial(k)
        return v

    def volume_coefficient(self, d: int, ks):
        """Coefficient of prod L_i^{2k_i} in the volume polynomial
        (at kappa-coupling degree d)."""
        ks = tuple(sorted(ks))
        v = self.entries[(d, ks)] / factorial(d)
        for k in ks:
            v = v / factorial(k)
        return v

    def sorted_items(self):
        return sorted(self.entries.items())


def wp_volume(
    g: int,
    n: int,
    *,
    verify: bool = False,
    workers: int = 1,
    floor: int | None = None,
) -> WpVolume:
    """All <kappa_1^d tau_{k_1} ... tau_{k_n}> with d + sum k = 3g - 3 + n."""
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    dim = 3 * g - 3 + n
    out = WpVolume(g=g, n=n, entries={})
    if dim < 0:
        return out
    if n == 1:
        low = -2 * dim - 2
        if floor is not None:
            low = min(low, floor)
        coeffs = f_kappa_1(dim, low)
        for k in range(dim + 1):
            d = dim - k
            sp = coeffs.get(-2 * k - 2)
            if sp is None:
                continue
            v = sp.coefficient(partition_to_monomial((1,) * d))
            if v:
                out.entries[(d, (k,))] = (
                    v * factorial(d) / odd_double_factorial(k)
                )
        return out
    windows = [(-dim - 1, -1)] * n
    box = f_kappa_n(n, windows, dim, verify=verify, workers=workers, floor=floor)
    for key, sp in box.items():
        ks = tuple(sorted(-e - 1 for e in key))
        if tuple(-k - 1 for k in sorted(ks, reverse=True)) != key:
            continue
        d = dim - sum(ks)
        if d < 0:
            continue
        v = sp.coefficient(partition_to_monomial((1,) * d))
        if not v:
            continue
        v = v * factorial(d)
        for k in ks:
            v = v / odd_double_factorial(k)
        out.entries[(d, ks)] = v
    return out


__all__ = [
    "DeformedWave",
    "WpVolume",
    "deformed_wave",
    "f_kappa_1",
    "f_kappa_n",
    "flow_apply",
    "kappa_linear",
    "kappa_linear_series",
    "ks_pair",
    "m_kappa_matrix",
    "mixed_correlator",
    "mixed_genus",
    "wave_component_series",
    "wave_flow_pair",
    "wave_series",
    "wp_volume",
]
