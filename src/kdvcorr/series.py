"""Truncated Laurent series over an exact coefficient ring.

A series carries a truncation floor `low`: coefficients at exponents >= low
are stored (absent means exactly zero), coefficients below the floor are
*unknown*, not zero, and reading one raises ValueError.  `low=None` marks an
exact series (a Laurent polynomial), known at every exponent.

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
used by every sparse dict in the package.
"""
from __future__ import annotations

from operator import add

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
    __slots__ = ("variable", "coefficients", "low")

    def __init__(self, variable: str, coefficients: dict, low: int | None = None):
        self.variable = variable
        self.coefficients = {e: c for e, c in coefficients.items() if c}
        if low is not None:
            for e in self.coefficients:
                if e < low:
                    raise ValueError(f"coefficient at {e} below truncation floor {low}")
        self.low = low

    # -- construction helpers ------------------------------------------------

    @classmethod
    def monomial(cls, variable: str, exponent: int, coeff=1) -> "LaurentSeries":
        return cls(variable, {exponent: coeff})

    @classmethod
    def zero(cls, variable: str) -> "LaurentSeries":
        return cls(variable, {})

    @classmethod
    def one(cls, variable: str) -> "LaurentSeries":
        return cls(variable, {0: 1})

    # -- basic queries -------------------------------------------------------

    def coefficient(self, exponent: int):
        """Coefficient at `exponent`; error below the truncation floor."""
        if self.low is not None and exponent < self.low:
            raise ValueError(
                f"exponent {exponent} below truncation floor {self.low} "
                f"in variable {self.variable}"
            )
        return self.coefficients.get(exponent, 0)

    def top(self) -> int | None:
        """Largest exponent with a known nonzero coefficient, None if none."""
        return max(self.coefficients) if self.coefficients else None

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

    def _check_var(self, other: "LaurentSeries") -> None:
        if self.variable != other.variable:
            raise ValueError(
                f"variable mismatch: {self.variable} vs {other.variable}"
            )

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_var(other)
        low = _max_floor(self.low, other.low)
        coeffs = dict(self.coefficients)
        for e, c in other.coefficients.items():
            add_into(coeffs, e, c)
        if low is not None:
            coeffs = {e: c for e, c in coeffs.items() if e >= low}
        return LaurentSeries(self.variable, coeffs, low)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentSeries(
            self.variable, {e: -c for e, c in self.coefficients.items()}, self.low
        )

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            # ring scalar
            return LaurentSeries(
                self.variable,
                {e: c * other for e, c in self.coefficients.items()},
                self.low,
            )
        self._check_var(other)
        low = _product_floor(self, other)
        if low == "zero":
            return LaurentSeries.zero(self.variable)
        coeffs: dict = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = e1 + e2
                if low is None or e >= low:
                    add_into(coeffs, e, c1 * c2)
        return LaurentSeries(self.variable, coeffs, low)

    def __rmul__(self, other):
        return LaurentSeries(
            self.variable,
            {e: other * c for e, c in self.coefficients.items()},
            self.low,
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by variable**k."""
        return LaurentSeries(
            self.variable,
            {e + k: c for e, c in self.coefficients.items()},
            None if self.low is None else self.low + k,
        )

    def substitute_negate(self) -> "LaurentSeries":
        """Substitute z -> -z: flip signs of odd-exponent coefficients."""
        return LaurentSeries(
            self.variable,
            {e: (-c if e % 2 else c) for e, c in self.coefficients.items()},
            self.low,
        )

    def derivative(self) -> "LaurentSeries":
        """d/dz."""
        coeffs = {e - 1: e * c for e, c in self.coefficients.items() if e != 0}
        return LaurentSeries(
            self.variable, coeffs, None if self.low is None else self.low - 1
        )

    def truncate(self, new_low: int) -> "LaurentSeries":
        """Forget coefficients below new_low (floors only ever rise)."""
        low = new_low if self.low is None else max(self.low, new_low)
        return LaurentSeries(
            self.variable,
            {e: c for e, c in self.coefficients.items() if e >= low},
            low,
        )

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse; the leading coefficient must be a unit
        rational (it is 1 for every series inverted in this package)."""
        top = self.top()
        if top is None:
            raise ValueError("cannot invert zero series")
        lead = self.coefficients[top]
        try:
            lead_inv = rat(1) / rat(lead)
        except TypeError:
            raise ValueError("leading coefficient is not a unit rational")
        out_low = None if self.low is None else self.low - 2 * top
        if self.low is None and len(self.coefficients) > 1:
            raise ValueError("inverse of an exact multi-term series is not exact")
        coeffs = {-top: lead_inv}
        if out_low is not None:
            for e in range(-top - 1, out_low - 1, -1):
                # convolution of self and the partial inverse must vanish at e+top
                acc = 0
                for e1, c1 in self.coefficients.items():
                    if e1 == top:
                        continue
                    c2 = coeffs.get(e + top - e1)
                    if c2 is not None:
                        acc = acc + c1 * c2
                if acc:
                    coeffs[e] = -lead_inv * acc
        return LaurentSeries(self.variable, coeffs, out_low)

    def residue_at_infinity(self):
        """Minus the coefficient of the first negative power."""
        return -self.coefficient(-1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Series are equal when they agree on every exponent at or above the
        larger of the two truncation floors."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.variable != other.variable:
            return False
        low = _max_floor(self.low, other.low)
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
                parts.append(f"({self.coefficients[e]})*{self.variable}^{e}")
            body = " + ".join(parts)
        tail = "" if self.low is None else f" + O({self.variable}^{self.low - 1})"
        return body + tail


def _max_floor(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


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

    Subclasses name their variables (`_var`, `_first_index`, used by repr) and
    may truncate products: `_product_cap()` returns a weight cap, or None to
    keep every term, and a subclass returning a cap also defines `_weight`.
    Both operands of a ring operation must be of the same subclass; anything
    else is coerced as a rational constant.
    """

    __slots__ = ("terms",)
    _var = "x"
    _first_index = 0

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[_strip(tuple(mono))] = c

    def _make(self, terms: dict):
        """Wrap an already normal terms dict without re-checking it."""
        out = object.__new__(type(self))
        out.terms = terms
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

    def _product_cap(self) -> int | None:
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            add_into(terms, mono, c)
        return self._make(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            cap = self._product_cap()
            if cap is not None:
                weight = self._weight
                weighted = [(weight(m), m, c) for m, c in other.terms.items()]
            terms: dict = {}
            for m1, c1 in self.terms.items():
                if cap is None:
                    row = other.terms.items()
                else:
                    room = cap - weight(m1)
                    row = [(m, c) for w, m, c in weighted if w <= room]
                for m2, c2 in row:
                    # the longer factor's tail survives, so no trailing zero
                    mono = tuple(map(add, m1, m2)) + (m1[len(m2):] or m2[len(m1):])
                    add_into(terms, mono, c1 * c2)
            return self._make(terms)
        if isinstance(other, LaurentSeries):
            return NotImplemented
        if not other:
            return self._make({})
        return self._make({m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        # through self.__mul__, so a wrapper installed on the class sees it
        return self.__mul__(other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def coefficient(self, mono: tuple):
        return self.terms.get(_strip(tuple(mono)), 0)

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
