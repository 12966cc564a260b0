"""Reference values computed without kdvcorr.

Nothing here imports the program under test.  The benchmark compares the
program's outputs against these:

* ``PsiNumbers``: Witten-Kontsevich numbers <tau_{k_1} ... tau_{k_n}> from the
  Dijkgraaf-Verlinde-Verlinde (Virasoro) recursion, with the string and
  dilaton equations removing tau_0 and tau_1 insertions first;
* ``two_point_numbers``: Dijkgraaf's closed two-point function
      sum <tau_a tau_b> x^a y^b
        = (exp((x^3 + y^3)/24) sum_n n!/(2n+1)! (xy(x+y)/2)^n - 1)/(x + y);
* ``kappa_number``: mixed kappa-psi numbers from the set-partition pushforward
      <kappa_{a_1} ... kappa_{a_m} tau_K>
        = sum_P (-1)^{m-|P|} <prod_{B in P} tau_{a_B+1} tau_K>;
* ``m_matrix_z``: the generating matrix M(z) from its closed genus
  coefficients P_g, a_g, b_g.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def genus_of(ks) -> int | None:
    """Genus fixed by sum k = 3g - 3 + n, or None when no genus fits."""
    num = sum(ks) - len(ks) + 3
    if num < 0 or num % 3:
        return None
    return num // 3


class PsiNumbers:
    """Memoized DVV recursion for <tau_{k_1} ... tau_{k_n}>.

    two_point, when given, supplies the width-2 values (from
    ``two_point_numbers``) so that the string and dilaton equations reach
    high-genus three-point numbers without recursing through genus.
    """

    def __init__(self, two_point: dict | None = None):
        self._memo: dict[tuple[int, ...], Fraction] = dict(two_point or {})

    def __call__(self, ks) -> Fraction:
        return self._get(tuple(sorted(ks)))

    def _get(self, ks: tuple[int, ...]) -> Fraction:
        got = self._memo.get(ks)
        if got is None:
            got = self._memo[ks] = self._compute(ks)
        return got

    def _compute(self, ks: tuple[int, ...]) -> Fraction:
        n = len(ks)
        g = genus_of(ks)
        if n == 0 or g is None or 2 * g - 2 + n <= 0:
            return Fraction(0)
        if ks == (0, 0, 0):
            return Fraction(1)
        if ks == (1,):
            return Fraction(1, 24)
        if n == 1:
            return Fraction(1, 24**g * factorial(g))
        rest = ks[1:]
        if ks[0] == 0:  # string equation
            total = Fraction(0)
            for j, k in enumerate(rest):
                if k:
                    total += self._get(_sorted_replace(rest, j, k - 1))
            return total
        if ks[0] == 1:  # dilaton equation
            return (2 * g - 2 + n - 1) * self._get(rest)
        # DVV on the largest index tau_{k+1}; every other index is >= 2
        k = ks[-1] - 1
        rest = ks[:-1]
        total = Fraction(0)
        for j, d in enumerate(rest):
            weight = Fraction(
                double_factorial(2 * k + 2 * d + 1), double_factorial(2 * d - 1)
            )
            total += weight * self._get(_sorted_replace(rest, j, d + k))
        counts: dict[int, int] = {}
        for d in rest:
            counts[d] = counts.get(d, 0) + 1
        values = sorted(counts)
        half = Fraction(0)
        for r in range(k):
            s = k - 1 - r
            w = double_factorial(2 * r + 1) * double_factorial(2 * s + 1)
            acc = self._get(tuple(sorted(rest + (r, s))))
            for pick in product(*(range(counts[v] + 1) for v in values)):
                left = [v for v, c in zip(values, pick) for _ in range(c)]
                right = [v for v, c in zip(values, pick) for _ in range(counts[v] - c)]
                a = self._get(tuple(sorted(left + [r])))
                if not a:
                    continue
                b = self._get(tuple(sorted(right + [s])))
                if b:
                    mult = prod(comb(counts[v], c) for v, c in zip(values, pick))
                    acc += mult * a * b
            half += w * acc
        total += half / 2
        return total / double_factorial(2 * k + 3)


def _sorted_replace(ks: tuple[int, ...], j: int, value: int) -> tuple[int, ...]:
    return tuple(sorted(ks[:j] + (value,) + ks[j + 1 :]))


def _poly_mul(p: dict, q: dict, top: int) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            if i1 + i2 + j1 + j2 <= top:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def two_point_numbers(max_sum: int) -> dict[tuple[int, int], Fraction]:
    """{(a, b): <tau_a tau_b>} for a <= b, a + b <= max_sum, nonzero only,
    from Dijkgraaf's closed two-point function."""
    top = max_sum + 1
    one = {(0, 0): Fraction(1)}
    cube = {(3, 0): Fraction(1, 24), (0, 3): Fraction(1, 24)}
    xyxy = {(2, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)}
    expo, power = dict(one), dict(one)
    for m in range(1, top // 3 + 1):
        power = _poly_mul(power, cube, top)
        for key, c in power.items():
            expo[key] = expo.get(key, 0) + c / factorial(m)
    series, power = dict(one), dict(one)
    for n in range(1, top // 3 + 1):
        power = _poly_mul(power, xyxy, top)
        w = Fraction(factorial(n), factorial(2 * n + 1))
        for key, c in power.items():
            series[key] = series.get(key, 0) + w * c
    numer = _poly_mul(expo, series, top)
    numer[(0, 0)] = numer.get((0, 0), 0) - 1
    out = {}
    for deg in range(1, top + 1):
        # divide the degree-deg part sum c_i x^i y^(deg-i) by (x + y)
        q_prev = Fraction(0)
        for i in range(deg):
            q = numer.get((i, deg - i), 0) - q_prev
            a, b = i, deg - 1 - i
            if q and a <= b:
                out[(a, b)] = q
            q_prev = q
        if numer.get((deg, 0), 0) != q_prev:
            raise ArithmeticError(f"degree {deg} part is not divisible by x + y")
    return out


def set_partitions(items: list):
    """Every set partition of items, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def kappa_number(psi: PsiNumbers, lam, ks) -> Fraction:
    """<kappa_{a_1} ... kappa_{a_m} tau_K> as an intersection number (the
    plain product of kappa classes, no division by symmetry factors)."""
    lam = list(lam)
    m = len(lam)
    total = Fraction(0)
    for part in set_partitions(list(range(m))):
        taus = [sum(lam[i] for i in block) + 1 for block in part]
        sign = -1 if (m - len(part)) % 2 else 1
        total += sign * psi(taus + list(ks))
    return total


def mult_factorial(lam) -> int:
    """prod over distinct parts of (multiplicity)!."""
    out = 1
    for v in set(lam):
        out *= factorial(list(lam).count(v))
    return out


def _p(g: int) -> Fraction:
    return Fraction(double_factorial(6 * g - 5), 24 ** (g - 1) * factorial(g - 1))


def _a(g: int) -> Fraction:
    return Fraction(double_factorial(6 * g - 1), 24**g * factorial(g))


def _b(g: int) -> Fraction:
    return Fraction(6 * g + 1, 6 * g - 1) * _a(g)


def m_matrix_z(low: int) -> list[list[dict[int, Fraction]]]:
    """M(z) = [[h, f], [e, -h]] as {z-exponent: value}, down to z^low:
    h = -1/2 sum P_g z^(-6g+4), f = -sum a_g z^(-6g), e = sum b_g z^(-6g+2)."""
    h, f, e = {}, {}, {}
    for g in range(0, (4 - low) // 6 + 1):
        if g >= 1 and -6 * g + 4 >= low:
            h[-6 * g + 4] = -_p(g) / 2
        if -6 * g >= low:
            f[-6 * g] = -_a(g)
        if -6 * g + 2 >= low:
            e[-6 * g + 2] = _b(g)
    return [[h, f], [e, {x: -c for x, c in h.items()}]]
