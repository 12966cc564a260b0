"""Truncated Laurent series in the one spectral variable z over an exact
coefficient ring.

Every series in the package is a series in z: M(z), the resolvent R(z),
Theta(z) and the wave pairs P c + Q q.  (The squared variable y = z^2 lives
only inside the trace engine's own dicts.)  A series carries a truncation
floor `low`: coefficients at exponents >= low are stored (absent means
exactly zero), coefficients below the floor are *unknown*, not zero, and
reading one raises ValueError.  `low=None` is the exact-polynomial form: a
Laurent polynomial, known at every exponent.

Arithmetic propagates the tightest floor for which every retained coefficient
is fully determined by retained inputs.  For a product this is

    low = max(f.low + top(g), g.low + top(f))

where top() is the largest exponent that can carry a nonzero coefficient;
multiplying by z^2 therefore *raises* the floor by two, it does not create
knowledge below it.

Coefficients are rationals (int or Fraction) or SparsePoly polynomials of
one class (differential polynomials, s-polynomials); a product of series or
of polynomials that mixes two classes, or meets any other coefficient,
raises TypeError.

The module also holds the shared sparse-polynomial core: `SparsePoly`, the
{exponent tuple: coefficient} ring behind the differential polynomials and
the s-polynomials, and `add_into`, the one accumulate-and-drop-zeros step
used by every sparse dict in the package.  A sparse polynomial carries a
weight cap, the counterpart of the floor `low`: only its terms of weight <=
cap are known, and `cap=None` is the exact form.  Sums and products take the
smaller cap of their operands and drop every term above it, so a cap set on
a seed constant travels with all that is built from it.

Every product of two series, and every product of two polynomials (the case
of one exponent), runs through one multiply-accumulate kernel, `_product`.
It scales each factor once to int numerators by the lcm of its denominators
and packs each monomial into one int, accumulates every exponent's int
products in one mutable {monomial: int} dict, forms no term pair above the
weight cap of the exponent it lands on, and divides each output term once by
the two scales.  Ints in give ints out; a Fraction in either factor gives
Fractions, even at denominator 1.  An exponent that a polynomial pair
reaches gets a polynomial at the smallest cap among its pairs, and one that
only rational pairs reach keeps a rational.  A scalar factor is a rational,
of a series also a polynomial; any other raises TypeError.

The kernel's reader is the one place that turns coefficients into ints:
`_factor` checks the coefficients and takes their lcm, class, top exponent
and caps, `_scaled` scales and packs them, and `_unpack` reads a packed
monomial back.  The trace engine (`npoint`) reads its matrices with them.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import inf, lcm
from operator import itemgetter

from .rationals import rat


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum vanishes.

    A missing key takes c itself, so no `0 + ring element` is ever formed.
    """
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class LaurentSeries:
    __slots__ = ("coefficients", "low")

    def __init__(self, coefficients: dict, low: int | None = None):
        self.coefficients = {e: c for e, c in coefficients.items() if c}
        if low is not None:
            for e in self.coefficients:
                if e < low:
                    raise ValueError(f"coefficient at {e} below truncation floor {low}")
        self.low = low

    # -- construction helpers ------------------------------------------------

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentSeries":
        return cls({exponent: coeff})

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentSeries":
        return cls({0: 1})

    # -- basic queries -------------------------------------------------------

    def coefficient(self, exponent: int):
        """Coefficient at `exponent`; error below the truncation floor."""
        if self.low is not None and exponent < self.low:
            raise ValueError(
                f"exponent {exponent} below truncation floor {self.low} in z"
            )
        return self.coefficients.get(exponent, 0)

    def _eff_top(self) -> int | None:
        # Largest exponent that may carry a nonzero coefficient: the largest
        # stored one, or just below the floor when nothing is stored.  None
        # means the series is exactly zero.
        if self.coefficients:
            return max(self.coefficients)
        if self.low is not None:
            return self.low - 1
        return None

    def support(self) -> list[int]:
        return sorted(self.coefficients)

    def is_zero_to_truncation(self) -> bool:
        return not self.coefficients

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = _tighter(self.low, other.low, max)
        coeffs = dict(self.coefficients)
        for e, c in other.coefficients.items():
            add_into(coeffs, e, c)
        if low is not None:
            coeffs = {e: c for e, c in coeffs.items() if e >= low}
        return LaurentSeries(coeffs, low)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coefficients.items()}, self.low)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            if not isinstance(other, (int, Fraction, SparsePoly)):
                return NotImplemented
            return LaurentSeries(
                {e: c * other for e, c in self.coefficients.items()}, self.low
            )
        low = _product_floor(self, other)
        if low == "zero":
            return LaurentSeries.zero()
        return LaurentSeries(_product(self.coefficients, other.coefficients, low), low)

    def __rmul__(self, other):
        if not isinstance(other, (int, Fraction, SparsePoly)):
            return NotImplemented
        return LaurentSeries(
            {e: other * c for e, c in self.coefficients.items()}, self.low
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z**k."""
        return LaurentSeries(
            {e + k: c for e, c in self.coefficients.items()},
            None if self.low is None else self.low + k,
        )

    def substitute_negate(self) -> "LaurentSeries":
        """Substitute z -> -z: flip signs of odd-exponent coefficients."""
        return LaurentSeries(
            {e: (-c if e % 2 else c) for e, c in self.coefficients.items()}, self.low
        )

    def derivative(self) -> "LaurentSeries":
        """d/dz."""
        coeffs = {e - 1: e * c for e, c in self.coefficients.items() if e != 0}
        return LaurentSeries(coeffs, None if self.low is None else self.low - 1)

    def truncate(self, new_low: int) -> "LaurentSeries":
        """Forget coefficients below new_low (floors only ever rise)."""
        low = new_low if self.low is None else max(self.low, new_low)
        return LaurentSeries(
            {e: c for e, c in self.coefficients.items() if e >= low}, low
        )

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Series are equal when they agree on every exponent at or above the
        larger of the two truncation floors."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = _tighter(self.low, other.low, max)
        exps = set(self.coefficients) | set(other.coefficients)
        if low is not None:
            exps = {e for e in exps if e >= low}
        return all(
            self.coefficients.get(e, 0) == other.coefficients.get(e, 0) for e in exps
        )

    __hash__ = None  # mutable-style container semantics

    def __repr__(self) -> str:
        if not self.coefficients:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coefficients, reverse=True):
                parts.append(f"({self.coefficients[e]})*z^{e}")
            body = " + ".join(parts)
        tail = "" if self.low is None else f" + O(z^{self.low - 1})"
        return body + tail


def _tighter(a: int | None, b: int | None, pick) -> int | None:
    """pick(a, b) of two optional bounds, where None means no bound."""
    return b if a is None else a if b is None else pick(a, b)


def _product_floor(f: LaurentSeries, g: LaurentSeries):
    ft, gt = f._eff_top(), g._eff_top()
    if (ft is None and f.low is None) or (gt is None and g.low is None):
        return "zero"  # exact zero factor
    bounds = []
    if f.low is not None:
        bounds.append(f.low + (gt if gt is not None else 0))
    if g.low is not None:
        bounds.append(g.low + (ft if ft is not None else 0))
    return max(bounds) if bounds else None


def _strip(mono: tuple) -> tuple:
    """Normal form of an exponent tuple: no trailing zeros."""
    k = len(mono)
    while k and mono[k - 1] == 0:
        k -= 1
    return mono[:k]


_NO_CAP = inf  # the cap of an exact polynomial, and of a rational


def _factor(items, proto):
    """One factor of `_product`, or the four entries of a trace matrix, read
    once from (exponent, coefficient) pairs: (L, fraction, proto, top, cap,
    rows).  L is the lcm of the denominators, `fraction` whether any
    coefficient is a Fraction, proto a polynomial of the one class of these
    coefficients and of the given proto (None while every coefficient is
    rational), top the largest variable exponent and cap the smallest weight
    cap (_NO_CAP when none is capped).  rows holds (exponent, cap,
    polynomial?, terms) per pair, terms being a polynomial's terms dict or
    the rational itself."""
    dens, fraction, top, cap, rows = set(), False, 0, _NO_CAP, []
    for e, c in items:
        if isinstance(c, SparsePoly):
            if proto is None:
                proto = c
            elif type(c) is not type(proto):
                raise TypeError(
                    f"{type(c).__name__} beside {type(proto).__name__}"
                    " mixes polynomial rings"
                )
            terms = c.terms
            for m in terms:
                if m and max(m) > top:
                    top = max(m)
            c_cap = _NO_CAP if c.cap is None else c.cap
            if c_cap < cap:
                cap = c_cap
            rows.append((e, c_cap, True, terms))
            values = terms.values()
        else:
            rows.append((e, _NO_CAP, False, c))
            values = (c,)
        for v in values:
            if type(v) is not int:
                if not isinstance(v, Fraction):
                    raise TypeError(f"{v!r} is neither a rational nor a SparsePoly")
                fraction = True
                dens.add(v.denominator)
    return lcm(*dens), fraction, proto, top, cap, rows


def _scaled(rows, den, width, weight):
    """`_factor`'s rows over the denominator `den` as ints: (exponent, cap,
    polynomial?, weights, [(weight, packed monomial, numerator)]) per row,
    its terms in the order of their weights (all 0 when weight is None).  A
    monomial is packed into one int, the exponent of variable j in the
    `width` bits from j * width up; a rational is the constant monomial."""
    out = []
    for e, cap, poly, terms in rows:
        items = []
        for m, v in terms.items() if poly else (((), terms),):
            key = 0
            for x in reversed(m):
                key = key << width | x
            n, d = v.as_integer_ratio()
            if d != den:
                n *= den // d
            items.append((weight(m) if weight else 0, key, n))
        items.sort(key=itemgetter(0))
        out.append((e, cap, poly, [w for w, _, _ in items], items))
    return out


def _unpack(key: int, width: int) -> tuple:
    """The exponent tuple that `_scaled` packed into `key` at `width`."""
    mask = (1 << width) - 1
    mono = []
    while key:  # the top field is nonzero, so no trailing zero
        mono.append(key & mask)
        key >>= width
    return tuple(mono)


def _product(f: dict, g: dict, low: int | None) -> dict:
    """sum_{e1, e2} f[e1] g[e2] z^(e1 + e2) as an {exponent: coefficient}
    dict on the exponents >= low (all for None), with no zero coefficient:
    the one product kernel of the module docstring.

    Monomials are packed by `_scaled`, wide enough that a sum of two never
    carries.  Each factor's terms are sorted by weight, read once, so a term
    pair above the cap of the exponent it lands on (the smallest cap among
    the pairs that reach that exponent) is cut off by one bisection and never
    formed."""
    f_den, f_frac, proto, f_top, f_cap, f_rows = _factor(f.items(), None)
    g_den, g_frac, proto, g_top, g_cap, g_rows = _factor(g.items(), proto)
    weight = proto._weight if f_cap != _NO_CAP or g_cap != _NO_CAP else None
    width = (f_top + g_top).bit_length()

    # the smallest cap at each exponent that a polynomial pair reaches
    caps = {}
    g_rows = _scaled(g_rows, g_den, width, weight)
    f_rows = _scaled(f_rows, f_den, width, weight)
    for e1, cap1, poly1, _, _ in f_rows:
        for e2, cap2, poly2, _, _ in g_rows:
            if poly1 or poly2:
                e = e1 + e2
                cap = cap1 if cap1 < cap2 else cap2
                old = caps.get(e)
                if old is None or cap < old:
                    caps[e] = cap
    if low is None:
        low = -inf
    acc: dict = {}
    for e1, _, _, ws1, kn1 in f_rows:
        for e2, _, _, ws2, kn2 in g_rows:
            e = e1 + e2
            if e < low:
                continue
            dst = acc.setdefault(e, {})
            cap = caps.get(e, _NO_CAP)
            for w1, k1, n1 in kn1:
                row = kn2 if cap == _NO_CAP else kn2[: bisect_right(ws2, cap - w1)]
                if not row:
                    break  # f's later terms weigh no less
                for _, k2, n2 in row:
                    k = k1 + k2
                    dst[k] = dst.get(k, 0) + n1 * n2
    den = f_den * g_den
    fraction = f_frac or g_frac
    out = {}
    for e, dst in acc.items():
        terms = {
            _unpack(key, width): Fraction(s, den) if fraction else s
            for key, s in dst.items()
            if s
        }
        if terms:
            cap = caps.get(e)
            out[e] = (
                terms[()] if cap is None
                else proto._make(terms, None if cap == _NO_CAP else cap)
            )
    return out


class SparsePoly:
    """Sparse polynomial {exponent tuple: nonzero coefficient} over the exact
    rationals, in variables x_0, x_1, ...; exponent tuples never end in zero.

    Subclasses name their variables (`_var`, `_first_index`, used by `var`
    and repr);
    a subclass that caps its polynomials weighs monomials by an additive
    `_weight`.  A polynomial built by the constructor is exact (`cap` None); a
    capped one, as made by `truncate_weight`, knows only its terms of
    weight <= cap and stores none above it.  Sums and products carry the
    smaller cap of their operands and products truncate there, as the floor
    `low` of a LaurentSeries rises.
    Both operands of a ring operation must be of the same subclass (else
    TypeError); a rational operand is an exact constant.
    """

    __slots__ = ("terms", "cap")
    _var = "x"
    _first_index = 0

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        self.cap = None
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[_strip(tuple(mono))] = c

    def _make(self, terms: dict, cap: int | None = None):
        """Wrap an already normal terms dict, with no term above cap, without
        re-checking it."""
        out = object.__new__(type(self))
        out.terms = terms
        out.cap = cap
        return out

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def var(cls, j: int):
        """The variable numbered j, counted from `_first_index`."""
        if j < cls._first_index:
            raise ValueError(
                f"{cls._var}-variables are indexed from {cls._first_index}"
            )
        return cls({(0,) * (j - cls._first_index) + (1,): 1})

    def truncate_weight(self, cap: int):
        """self known only to weight cap: the terms above it dropped and the
        cap recorded, so everything built from the result truncates there."""
        cap = cap if self.cap is None else min(self.cap, cap)
        return self._make(self._upto(cap), cap)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        try:
            return self.const(rat(other))
        except TypeError:
            return None

    def _upto(self, cap: int | None) -> dict:
        """The terms of weight <= cap, without a copy when none is above it."""
        if cap is None or (self.cap is not None and self.cap <= cap):
            return self.terms
        weight = self._weight
        return {m: c for m, c in self.terms.items() if weight(m) <= cap}

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cap = _tighter(self.cap, other.cap, min)
        terms = dict(self._upto(cap))
        for mono, c in other._upto(cap).items():
            add_into(terms, mono, c)
        return self._make(terms, cap)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make({m: -c for m, c in self.terms.items()}, self.cap)

    def __mul__(self, other):
        """self * other; a product of two polynomials, of one subclass (else
        TypeError), keeps only the terms whose `_weight` is at most the
        factors' smaller cap.  It is the one-exponent case of the series
        product kernel, which forms no term pair above the cap."""
        if isinstance(other, LaurentSeries):
            return NotImplemented
        if not isinstance(other, SparsePoly):  # a scalar; zero leaves no term
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            terms = {m: c * other for m, c in self.terms.items()} if other else {}
            return self._make(terms, self.cap)
        out = _product({0: self}, {0: other}, None)
        return out.get(0) or self._make({}, _tighter(self.cap, other.cap, min))

    def __rmul__(self, other):
        # through self.__mul__, so a wrapper installed on the class sees it
        return self.__mul__(other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        """Equal on every monomial up to the smaller of the two caps."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cap = _tighter(self.cap, other.cap, min)
        return self._upto(cap) == other._upto(cap)

    __hash__ = None

    def coefficient(self, mono: tuple):
        """Coefficient of `mono`; error above the weight cap."""
        mono = _strip(tuple(mono))
        if self.cap is not None and self._weight(mono) > self.cap:
            raise ValueError(f"monomial {mono} above weight cap {self.cap}")
        return self.terms.get(mono, 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def mono_str(m):
            if not m:
                return "1"
            return "*".join(
                f"{self._var}{j + self._first_index}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(m)
                if e
            )

        return " + ".join(
            f"({c})*{mono_str(m)}" for m, c in sorted(self.terms.items())
        )


__all__ = ["LaurentSeries", "SparsePoly", "add_into"]
