"""Differential polynomials in the jet variables u = u_0, u_x = u_1, u_xx = u_2, ...

The ring A = Q[u_0, u_1, u_2, ...] carries the total x-derivative

    d_x u_k = u_{k+1}

and the gradation deg(u_k) = k + 2, under which the KdV Hamiltonian densities
Omega_p produced by the Lenard-Magri recursion are homogeneous of degree
2p + 2.  On top of the ring this module builds the resolvent series R(z), the
Riccati series chi(z), the traceless matrix Theta(z) with Theta^2 = z^2, and
the general two-point correlator extracted from the matrix-resolvent formula

    F_2(z, w) = [Tr Theta(z) Theta(w) - z^2 - w^2] / (z^2 - w^2)^2
              = [R_x(z)R_x(w)/2 - Theta_21(z)R(w) - R(z)Theta_21(w)
                 - z^2 - w^2] / (z^2 - w^2)^2

expanded in the region |z| > |w|.  Theta_21 = R_xx/2 - (z^2 - 2u)R is
R(z) chi(z) chi(-z), so F_2 needs no Riccati series.

The recursions run over Python ints.  Each works on a scaled object whose
coefficients are integers, and divides by the known scale once, when a public
function reads the result:

    X_p = 4^p (2p+1)!! Omega_p:  X_0 = u,
        X_p = (X'' + 4 u X) + int 4 u X'   with X = X_{p-1},
        4 u X formed by raising each monomial's u exponent, with no
        product, and every antiderivative division exact; omega(p)
        divides X_p by 4^p (2p+1)!!.
    Y_k = 2^k chi_k:  Y_1 = -2u,
        Y_k = -(d_x Y_{k-1} + sum_{a=1}^{k-2} Y_a Y_{k-1-a}), each product
        Y_a Y_b with a != b formed once and doubled.

X_p and Y_k are cached per index, and so are the pieces of X_p that the
recursion, Theta and the WP flow coefficients share, d_x X_p and
d_x^2 X_p + 4 u X_p.  The public series are read off scaled series over the
int ring, one division per coefficient:

    resolvent(K)          4^K R(z) = 4^K + sum_k 4^{K-k} X_k z^{-2k-2}
    riccati_chi(K)        2^K chi(z) = 2^K z + sum_k 2^{K-k} Y_k z^{-k}
    theta_matrix(K)       2 * 4^K Theta(z), from the pieces, with no
                          derivative or product of a whole series: the
                          diagonal is -+4^{K-k} d_x X_k at z^{-2k-2}, and
                          since X_{k+1} = X_k'' + 4 u X_k + int 4 u X_k', the
                          lower-left entry is
                          2 * 4^{K-k-1} (2 (X_k'' + 4 u X_k) - X_{k+1})
                          at z^{-2k-2} for k < K, 2 * 4^K u at z^0 and
                          -2 * 4^K at z^2, floor -2K
    two_point_general     the F_2 numerator at the scale 2 * 4^{2K}, from
                          the same 4^K R, 4^K R_x and 2 * 4^K Theta_21 that
                          theta_matrix reads.  Each coefficient of the
                          result is divided once by
                          2 * 4^{2K} (2p+1)!! (2q+1)!!.

A negative truncation order K, a negative index p or q, or a negative flow
index k is a ValueError.
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
            top = len(mono) - 1
            for j, e in enumerate(mono):
                if not e:
                    continue
                # u_{j+1} gains a power, so the result ends in a nonzero entry
                if j == top:
                    new = mono[:j] + (e - 1, 1)
                else:
                    new = mono[:j] + (e - 1, mono[j + 1] + 1) + mono[j + 2:]
                add_into(terms, new, e * c)
        return self._make(terms)

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


def _exact_div(c, n: int):
    """c / n exactly: an int when n divides the int c, else a Fraction."""
    if type(c) is int and not c % n:
        return c // n
    return rat(c, n)


def formal_antiderivative(f: DiffPoly) -> DiffPoly:
    """The g with d_x(g) = f and zero constant term, if one exists.

    Strips the highest jet, layer by layer: the terms of f are bucketed by
    monomial length, and if u_J is the top jet of a layer, an exact derivative
    must be linear in u_J with a coefficient A free of u_J.  Integrating A
    with respect to u_{J-1} gives a piece of g whose u_{J-1} derivative term
    is the whole layer, so only its lower-jet derivative terms are subtracted,
    into the layer below.  A nonzero remainder in u alone (or a constant, or
    a higher power of the top jet) means f is not an exact x-derivative.
    Int coefficients stay ints where the integration divides them exactly
    and become Fractions where not.
    """
    layers: dict = {}  # monomial length -> {mono: coeff}
    for mono, c in f.terms.items():
        layers.setdefault(len(mono), {})[mono] = c
    g: dict = {}
    for n in range(max(layers, default=0), 1, -1):
        layer = layers.pop(n, None)
        if not layer:
            continue
        top = n - 1
        below = layers.setdefault(top, {})
        for mono, c in layer.items():
            if mono[top] > 1:
                raise ValueError("not an exact x-derivative")
            e = mono[top - 1] + 1
            piece = mono[: top - 1] + (e,)
            c = g[piece] = _exact_div(c, e)
            # d_x of the piece, less its u_{top-1} term: all of length top
            for j in range(top - 1):
                ej = piece[j]
                if ej:
                    lower = piece[:j] + (ej - 1, piece[j + 1] + 1) + piece[j + 2 :]
                    add_into(below, lower, -ej * c)
    if any(layers.values()):
        raise ValueError("not an exact x-derivative")
    return f._make(g)


def _divide(f: DiffPoly, n: int) -> DiffPoly:
    """f / n with Fraction coefficients: the one division of a scaled result."""
    return f._make({m: rat(c, n) for m, c in f.terms.items()})


def _read(s: LaurentSeries, scale: int) -> LaurentSeries:
    """A series over the int jet ring, divided by its scale coefficientwise."""
    return LaurentSeries({e: _divide(c, scale) for e, c in s.coefficients.items()}, s.low)


_U = DiffPoly.jet(0)


def _times_4u(x: DiffPoly) -> DiffPoly:
    """4 u x for an exact x with no constant term (X_p and its derivatives):
    each monomial's u_0 exponent raised by one and each coefficient times 4,
    with no product formed."""
    return x._make({(m[0] + 1, *m[1:]): 4 * c for m, c in x.terms.items()})


@cache
def _omega_x(p: int) -> DiffPoly:
    """X_p = 4^p (2p+1)!! Omega_p over the integers, p >= 0:

        X_0 = u,   d_x X_p = (8 u d_x + 4 u_x + d_x^3) X_{p-1}.

    The right-hand side is d_x(d_x^2 X + 4 u X) + 4 u d_x X, so only the last
    term goes through the antiderivative.  It is integral, because X_p, d_x^2 X
    and 4 u X are, so every division in formal_antiderivative is exact.
    """
    if p == 0:
        return _U
    d, e = _omega_pieces(p - 1)
    return e + formal_antiderivative(_times_4u(d))


@cache
def _omega_x_dx(p: int) -> DiffPoly:
    """d_x X_p, cached on its own: the deepest diagonal term of Theta needs
    it without the second piece."""
    return _omega_x(p).d_x()


@cache
def _omega_pieces(p: int) -> tuple[DiffPoly, DiffPoly]:
    """(d_x X_p, d_x^2 X_p + 4 u X_p): the pieces of X_p that the recursion
    for X_{p+1}, Theta and the WP flow coefficients share."""
    d = _omega_x_dx(p)
    return d, d.d_x() + _times_4u(_omega_x(p))


@cache
def omega(p: int) -> DiffPoly:
    """KdV Hamiltonian density Omega_p via the Lenard-Magri recursion

        (2p+1) d_x Omega_p = (2 u d_x + u_x + d_x^3 / 4) Omega_{p-1},

    normalized by Omega_{-1} = 1 (so Omega_0 = u) and zero constant terms;
    read off X_p = 4^p (2p+1)!! Omega_p.
    """
    if p < -1:
        raise ValueError("omega defined for p >= -1")
    if p == -1:
        return DiffPoly.const(1)
    return _divide(_omega_x(p), 4**p * odd_double_factorial(p))


@cache
def _omega_dx(k: int, j: int) -> DiffPoly:
    """d_x^{j+1} Omega_k = d_{t_k} u_j, built from the cached omega(k)."""
    return (omega(k) if j == 0 else _omega_dx(k, j - 1)).d_x()


def flow_derivative(f: DiffPoly, k: int) -> DiffPoly:
    """d/dt_k along the KdV hierarchy: d_{t_k} u_j = d_x^{j+1} Omega_k, k >= 0.

    The flow is the derivation sum_j (df/du_j) d_x^{j+1} Omega_k; t_0 is x.
    """
    if k < 0:
        raise ValueError(f"flow index k must be >= 0, got {k}")
    out = DiffPoly()
    for j in range(f.max_jet() + 1):
        pj = f.partial(j)
        if pj:
            out = out + pj * _omega_dx(k, j)
    return out


@cache
def _chi_y(k: int) -> DiffPoly:
    """Y_k = 2^k chi_k over the integers, k >= 1:

        Y_1 = -2u,   Y_k = -(d_x Y_{k-1} + sum_{a=1}^{k-2} Y_a Y_{k-1-a}),

    the sum formed as 2 sum_{a < k-1-a} Y_a Y_{k-1-a}, plus Y_{(k-1)/2}^2
    when k is odd.
    """
    if k == 1:
        return -2 * _U
    twice = DiffPoly()
    for a in range(1, k // 2):
        twice = twice + _chi_y(a) * _chi_y(k - 1 - a)
    acc = _chi_y(k - 1).d_x() + 2 * twice
    if k % 2:
        half = _chi_y((k - 1) // 2)
        acc = acc + half * half
    return -acc


# -- series built over the jet ring -----------------------------------------


def _check_order(K: int) -> None:
    if K < 0:
        raise ValueError(f"truncation order K must be >= 0, got {K}")


def _scaled_resolvent(K: int) -> LaurentSeries:
    """4^K R(z) = 4^K + sum_{k=0}^{K} 4^{K-k} X_k z^{-2k-2}, floor -(2K+2)."""
    _check_order(K)
    coeffs: dict = {0: DiffPoly.const(4**K)}
    for k in range(K + 1):
        coeffs[-2 * k - 2] = 4 ** (K - k) * _omega_x(k)
    return LaurentSeries(coeffs, low=-2 * K - 2)


@cache
def _theta_scaled(K: int) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries]:
    """(4^K R, 4^K R_x, 2 * 4^K Theta_21): the entries of Theta over the int
    jet ring, from the cached pieces of X_k (see the module docstring).  The
    series behind every theta_matrix and two_point_general call at this K;
    shared, so only ever read."""
    s = _scaled_resolvent(K)
    sx = {-2 * k - 2: 4 ** (K - k) * _omega_x_dx(k) for k in range(K + 1)}
    e21: dict = {2: DiffPoly.const(-2 * 4**K), 0: (2 * 4**K) * _U}
    for k in range(K):
        e = _omega_pieces(k)[1]
        e21[-2 * k - 2] = (2 * 4 ** (K - k - 1)) * (2 * e - _omega_x(k + 1))
    return s, LaurentSeries(sx, low=-2 * K - 2), LaurentSeries(e21, low=-2 * K)


def _scaled_chi(K: int) -> LaurentSeries:
    """2^K chi(z) = 2^K z + sum_{k=1}^{K} 2^{K-k} Y_k z^{-k}, floor -K."""
    _check_order(K)
    coeffs: dict = {1: DiffPoly.const(2**K)}
    for k in range(1, K + 1):
        coeffs[-k] = 2 ** (K - k) * _chi_y(k)
    return LaurentSeries(coeffs, low=-K)


def resolvent(K: int) -> LaurentSeries:
    """R(z) = 1 + sum_{k=0}^{K} (2k+1)!! Omega_k z^{-2k-2}, floor -(2K+2)."""
    return _read(_scaled_resolvent(K), 4**K)


def riccati_chi(K: int) -> LaurentSeries:
    """chi(z) = z + sum_{k=1}^{K} chi_k z^{-k} solving
    chi_x + chi^2 + 2u - z^2 = 0, with chi_1 = -u."""
    return _read(_scaled_chi(K), 2**K)


def theta_matrix(K: int) -> list[list[LaurentSeries]]:
    """Theta(z) = [[-R_x/2, -R], [R_xx/2 - (z^2 - 2u)R, R_x/2]]: traceless
    with Theta^2 = z^2 on retained orders.  Read off 2 * 4^K Theta, built
    from the cached pieces of X_k (see the module docstring)."""
    s, sx, t = _theta_scaled(K)
    scale = 2 * 4**K
    return [
        [_read(-sx, scale), _read(-2 * s, scale)],
        [_read(t, scale), _read(sx, scale)],
    ]


def _map_dx(s: LaurentSeries) -> LaurentSeries:
    """Apply d_x to every jet-ring coefficient."""
    return LaurentSeries({e: c.d_x() for e, c in s.coefficients.items()}, s.low)


def mat2_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def two_point_general(p: int, q: int, K: int) -> DiffPoly:
    """<<tau_p tau_q>> as a differential polynomial: the coefficient of
    z^{-2p-2} w^{-2q-2} in F_2(z, w) (see the module docstring), expanded in
    |z| > |w|, divided by (2p+1)!! (2q+1)!!.

    Requires K >= p + q; a smaller K raises the below-floor error from the
    underlying series.
    """
    if p < 0 or q < 0:
        raise ValueError("negative index")
    s, sx, t = _theta_scaled(K)
    # the F2 numerator times scale = 2 * 4^{2K}, as a sum of weight * f(z) g(w)
    # with the w-series read off the same univariate expansions; its -z^2 - w^2
    # term lives at non-negative powers, never at z^{-2p-2} w^{-2q-2}
    scale = 2 * 4 ** (2 * K)
    pairs = [(1, sx, sx), (-1, t, s), (-1, s, t)]
    a = -2 * p - 2
    b = -2 * q - 2
    acc = DiffPoly()
    for weight, fz, gw in pairs:
        ft = fz._eff_top()
        m = 0
        while a + 2 * m + 4 <= ft:
            cf = fz.coefficient(a + 2 * m + 4)
            if cf:
                cg = gw.coefficient(b - 2 * m)
                if cg:
                    acc = acc + (weight * (m + 1)) * (cf * cg)
            m += 1
    return _divide(acc, scale * odd_double_factorial(p) * odd_double_factorial(q))


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
