"""Differential polynomials in the jet variables u = u_0, u_x = u_1, u_xx = u_2, ...

The ring A = Q[u_0, u_1, u_2, ...] carries the total x-derivative

    d_x u_k = u_{k+1}

and the gradation deg(u_k) = k + 2, under which the KdV Hamiltonian densities
Omega_p produced by the Lenard-Magri recursion are homogeneous of degree
2p + 2.  On top of the ring this module builds the resolvent series R(z), the
Riccati series chi(z), the traceless matrix Theta(z) with Theta^2 = z^2, and
the general two-point correlator extracted from

    F_2(z, w) = [R_x(w)R_x(z)/2 - R(w)R(z)chi(z)chi(-z)
                 - R(z)R(w)chi(w)chi(-w) - z^2 - w^2] / (z^2 - w^2)^2

expanded in the region |z| > |w|.
"""
from __future__ import annotations

from functools import cache

from .rationals import odd_double_factorial, rat
from .series import LaurentSeries, SparsePoly, _strip, add_into


class DiffPoly(SparsePoly):
    """Sparse differential polynomial: {jet exponent tuple: rational}."""

    __slots__ = ()
    _var = "u"

    @classmethod
    def jet(cls, j: int) -> "DiffPoly":
        """The jet variable u_j."""
        return cls({(0,) * j + (1,): 1})

    def max_jet(self) -> int:
        """Largest jet index appearing, -1 for a constant."""
        return max((len(m) - 1 for m in self.terms), default=-1)

    def partial(self, j: int) -> "DiffPoly":
        """d/du_j."""
        terms: dict = {}
        for mono, c in self.terms.items():
            if j < len(mono) and mono[j]:
                e = mono[j]
                new = _strip(tuple(x - 1 if i == j else x for i, x in enumerate(mono)))
                add_into(terms, new, e * c)
        return self._make(terms)

    def d_x(self) -> "DiffPoly":
        """Total x-derivative: sum_k u_{k+1} d/du_k."""
        terms: dict = {}
        for mono, c in self.terms.items():
            for j, e in enumerate(mono):
                if not e:
                    continue
                # u_{j+1} gains a power, so the result ends in a nonzero entry
                new = list(mono) + [0] * (j + 2 - len(mono))
                new[j] -= 1
                new[j + 1] += 1
                add_into(terms, tuple(new), e * c)
        return self._make(terms)

    def d_x_pow(self, k: int) -> "DiffPoly":
        out = self
        for _ in range(k):
            out = out.d_x()
        return out

    def evaluate_at_jets(self, jets) -> object:
        """Substitute u_j = jets[j] (zero beyond the end of the list)."""
        total = 0
        for mono, c in self.terms.items():
            val = c
            for j, e in enumerate(mono):
                if not e:
                    continue
                base = jets[j] if j < len(jets) else 0
                if not base:
                    val = 0
                    break
                val = val * base**e
            total = total + val
        return total


def formal_antiderivative(f: DiffPoly) -> DiffPoly:
    """The g with d_x(g) = f and zero constant term, if one exists.

    Repeatedly strips the highest jet: if u_J is the top jet of f, an exact
    derivative must be linear in u_J with coefficient A free of u_J, and
    integrating A with respect to u_{J-1} removes the top layer.  A nonzero
    remainder in u alone (or a constant, or a higher power of the top jet)
    means f is not an exact x-derivative.
    """
    g = DiffPoly()
    work = f
    while work.terms:
        top = work.max_jet()
        if top <= 0:
            raise ValueError("not an exact x-derivative")
        a_terms: dict = {}
        for mono, c in work.terms.items():
            if len(mono) - 1 == top:
                if mono[top] > 1:
                    raise ValueError("not an exact x-derivative")
                a_terms[_strip(mono[:top])] = c
        a = DiffPoly(a_terms)
        # integrate a with respect to u_{top-1}
        c_terms: dict = {}
        for mono, c in a.terms.items():
            new = list(mono) + [0] * (top - len(mono))
            new[top - 1] += 1
            c_terms[tuple(new)] = c * rat(1, new[top - 1])
        piece = DiffPoly(c_terms)
        g = g + piece
        work = work - piece.d_x()
    return g


_U = DiffPoly.jet(0)
_UX = DiffPoly.jet(1)

@cache
def omega(p: int) -> DiffPoly:
    """KdV Hamiltonian density Omega_p via the Lenard-Magri recursion

        (2p+1) d_x Omega_p = (2 u d_x + u_x + d_x^3 / 4) Omega_{p-1},

    normalized by Omega_{-1} = 1 (so Omega_0 = u) and zero constant terms.
    """
    if p < -1:
        raise ValueError("omega defined for p >= -1")
    if p == -1:
        return DiffPoly.const(1)
    # through the module-level name, so a wrapper installed there sees the
    # recursion too
    prev = omega(p - 1)
    rhs = 2 * _U * prev.d_x() + _UX * prev + rat(1, 4) * prev.d_x_pow(3)
    return formal_antiderivative(rat(1, 2 * p + 1) * rhs)


def flow_derivative(f: DiffPoly, k: int) -> DiffPoly:
    """d/dt_k along the KdV hierarchy: d_{t_k} u_j = d_x^{j+1} Omega_k."""
    out = DiffPoly()
    if not f.terms:
        return out
    om = omega(k)
    flows = [om.d_x()]
    for _ in range(f.max_jet()):
        flows.append(flows[-1].d_x())
    for j in range(f.max_jet() + 1):
        pj = f.partial(j)
        if pj:
            out = out + pj * flows[j]
    return out


# -- series built over the jet ring -----------------------------------------


def resolvent(K: int) -> LaurentSeries:
    """R(z) = 1 + sum_{k=0}^{K} (2k+1)!! Omega_k z^{-2k-2}, floor -(2K+2)."""
    coeffs: dict = {0: DiffPoly.const(1)}
    for k in range(K + 1):
        coeffs[-2 * k - 2] = odd_double_factorial(k) * omega(k)
    return LaurentSeries(coeffs, low=-2 * K - 2)


def riccati_chi(K: int) -> LaurentSeries:
    """chi(z) = z + sum_{k=1}^{K} chi_k z^{-k} solving
    chi_x + chi^2 + 2u - z^2 = 0, with chi_1 = -u."""
    chis: list[DiffPoly] = [DiffPoly()]  # chi_0 = 0
    for k in range(1, K + 1):
        acc = chis[k - 1].d_x() if k >= 2 else DiffPoly()
        for a in range(1, k - 1):
            acc = acc + chis[a] * chis[k - 1 - a]
        if k == 1:
            acc = acc + 2 * _U
        chis.append(rat(-1, 2) * acc)
    coeffs: dict = {1: DiffPoly.const(1)}
    for k in range(1, K + 1):
        coeffs[-k] = chis[k]
    return LaurentSeries(coeffs, low=-K)


def theta_matrix(K: int) -> list[list[LaurentSeries]]:
    """Theta(z) = [[-R_x/2, -R], [R_xx/2 - (z^2 - 2u)R, R_x/2]]: traceless
    with Theta^2 = z^2 on retained orders."""
    r = resolvent(K)
    rx = _map_dx(r)
    rxx = _map_dx(rx)
    half = rat(1, 2)
    e21 = rxx * half - r.shift(2) + (2 * _U) * r
    return [[-half * rx, -r], [e21, half * rx]]


def _map_dx(s: LaurentSeries) -> LaurentSeries:
    """Apply d_x to every jet-ring coefficient."""
    return LaurentSeries({e: c.d_x() for e, c in s.coefficients.items()}, s.low)


def mat2_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def two_point_general(p: int, q: int, K: int) -> DiffPoly:
    """<<tau_p tau_q>> as a differential polynomial, from the two-point series
    quoted in the module docstring, expanded in |z| > |w|.

    Requires p + q <= K - 2; insufficient truncation raises the below-floor
    error from the underlying series.
    """
    r = resolvent(K)
    rx = _map_dx(r)
    chi = riccati_chi(2 * K)
    rcc = r * (chi * chi.substitute_negate())
    one = LaurentSeries.one()
    zsq = LaurentSeries.monomial(2, DiffPoly.const(1))
    # even pair list: F2 numerator as sum of f(z) * g(w) with w-series read
    # off the same univariate expansions
    pairs = [
        (rat(1, 2) * rx, rx),
        (-rcc, r),
        (-r, rcc),
        (-zsq, one),
        (-one, zsq),
    ]
    a = -2 * p - 2
    b = -2 * q - 2
    acc = DiffPoly()
    for fz, gw in pairs:
        ft = fz._eff_top()
        if ft is None:
            continue
        m = 0
        while a + 2 * m + 4 <= ft:
            cf = fz.coefficient(a + 2 * m + 4)
            if cf:
                cg = gw.coefficient(b - 2 * m)
                if cg:
                    acc = acc + (m + 1) * (cf * cg)
            m += 1
    return rat(1, odd_double_factorial(p) * odd_double_factorial(q)) * acc


__all__ = [
    "DiffPoly",
    "formal_antiderivative",
    "omega",
    "flow_derivative",
    "resolvent",
    "riccati_chi",
    "theta_matrix",
    "two_point_general",
    "mat2_mul",
]
