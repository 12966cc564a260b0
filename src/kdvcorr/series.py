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

Coefficients may live in any commutative ring whose elements support +, -, *
and truth testing and absorb the integer 0 (rationals, differential
polynomials, s-polynomials); mixed int/ring arithmetic is used for zero.

The module also holds the shared sparse-polynomial core: `SparsePoly`, the
{exponent tuple: coefficient} ring behind the differential polynomials and
the s-polynomials, and `add_into`, the one accumulate-and-drop-zeros step
used by every sparse dict in the package.  A sparse polynomial carries a
weight cap, the counterpart of the floor `low`: only its terms of weight <=
cap are known, and `cap=None` is the exact form.  Sums and products take the
smaller cap of their operands and drop every term above it, so a cap set on
a seed constant travels with all that is built from it, into pool workers too.
"""
from __future__ import annotations

from operator import add, itemgetter

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
            # ring scalar
            return LaurentSeries(
                {e: c * other for e, c in self.coefficients.items()}, self.low
            )
        low = _product_floor(self, other)
        if low == "zero":
            return LaurentSeries.zero()
        coeffs: dict = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = e1 + e2
                if low is None or e >= low:
                    add_into(coeffs, e, c1 * c2)
        return LaurentSeries(coeffs, low)

    def __rmul__(self, other):
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


class SparsePoly:
    """Sparse polynomial {exponent tuple: nonzero coefficient} over the exact
    rationals, in variables x_0, x_1, ...; exponent tuples never end in zero.

    Subclasses name their variables (`_var`, `_first_index`, used by repr);
    a subclass that caps its polynomials weighs monomials by an additive
    `_weight`.  A polynomial built by the constructor is exact (`cap` None); a
    capped one, as made by `SPoly.truncate_weight`, knows only its terms of
    weight <= cap and stores none above it.  Sums and products carry the
    smaller cap of their operands and products truncate there, as the floor
    `low` of a LaurentSeries rises.
    Both operands of a ring operation must be of the same subclass; anything
    else is coerced as an exact rational constant.
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
        """self * other; a product of two polynomials of this subclass keeps
        only the terms whose `_weight` is at most the factors' smaller cap.
        The weight adds under products, so a pair of terms is skipped before
        it is formed: `other`'s terms are sorted by weight once, and each term
        of self walks only the prefix that fits under the cap."""
        if isinstance(other, LaurentSeries):
            return NotImplemented
        if not isinstance(other, type(self)):  # a scalar; zero leaves no term
            terms = {m: c * other for m, c in self.terms.items()} if other else {}
            return self._make(terms, self.cap)
        cap = _tighter(self.cap, other.cap, min)
        if cap is None:  # uncapped: every weight reads 0
            weighted = [(0, m, c) for m, c in other.terms.items()]
        else:
            weight = self._weight
            weighted = sorted(
                ((weight(m), m, c) for m, c in other.terms.items()), key=itemgetter(0)
            )
        terms: dict = {}
        for m1, c1 in self.terms.items():
            room = 0 if cap is None else cap - weight(m1)
            for w, m2, c2 in weighted:
                if w > room:
                    break
                # the longer factor's tail survives, so no trailing zero
                mono = tuple(map(add, m1, m2)) + (m1[len(m2):] or m2[len(m1):])
                add_into(terms, mono, c1 * c2)
        return self._make(terms, cap)

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
