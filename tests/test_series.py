"""Truncated Laurent series: floor algebra and ring operations."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr.diffpoly import DiffPoly
from kdvcorr.partitions import SPoly, monomial_weight
from kdvcorr.rationals import rat
from kdvcorr.series import LaurentSeries, SparsePoly


def series(coeffs, low=None):
    return LaurentSeries(coeffs, low)


def test_zero_coefficients_are_dropped_on_construction():
    f = series({3: rat(0), 1: rat(2)})
    assert f.support() == [1]
    assert f.coefficient(3) == 0


def test_construction_rejects_entries_below_floor():
    with pytest.raises(ValueError):
        series({-5: rat(1)}, low=-3)


def test_coefficient_below_floor_raises():
    f = series({0: rat(1)}, low=-4)
    assert f.coefficient(-4) == 0
    with pytest.raises(ValueError):
        f.coefficient(-5)


def test_exact_series_known_everywhere():
    f = series({2: rat(1)})
    assert f.low is None
    assert f.coefficient(-1000) == 0


def test_addition_uses_larger_floor():
    f = series({0: rat(1)}, low=-4)
    g = series({0: rat(1)}, low=-2)
    assert (f + g).low == -2
    assert (f + series({1: rat(3)})).low == -4


def test_addition_cancels_and_prunes():
    f = series({2: rat(5), 0: rat(1)})
    g = series({2: rat(-5)})
    assert (f + g).support() == [0]


def test_product_floor_rule():
    # low = max(f.low + top(g), g.low + top(f))
    f = series({2: rat(1), -3: rat(4)}, low=-6)
    g = series({1: rat(2)}, low=-4)
    h = f * g
    assert h.low == max(-6 + 1, -4 + 2)
    assert h.coefficient(3) == rat(2)


def test_multiplying_by_monomial_raises_floor():
    f = series({0: rat(1)}, low=-8)
    z2 = series({2: rat(1)})
    assert (f * z2).low == -6
    assert (z2 * f).low == -6


def test_scalar_multiplication_keeps_floor():
    f = series({0: rat(1), -2: rat(3)}, low=-5)
    g = f * rat(1, 2)
    assert g.low == -5
    assert g.coefficient(-2) == rat(3, 2)
    h = rat(2) * f
    assert h.coefficient(-2) == rat(6)


def test_shift_moves_floor_with_exponents():
    f = series({0: rat(1)}, low=-4)
    g = f.shift(3)
    assert g.low == -1
    assert g.coefficient(3) == rat(1)


def test_substitute_negate_flips_odd_exponents():
    f = series({3: rat(1), 2: rat(1), -1: rat(5)}, low=-2)
    g = f.substitute_negate()
    assert g.coefficient(3) == rat(-1)
    assert g.coefficient(2) == rat(1)
    assert g.coefficient(-1) == rat(-5)
    assert g.low == -2


def test_derivative_lowers_floor():
    f = series({2: rat(1), 0: rat(7), -3: rat(1)}, low=-3)
    g = f.derivative()
    assert g.low == -4
    assert g.coefficient(1) == rat(2)
    assert g.coefficient(-4) == rat(-3)
    assert g.coefficient(-1) == 0


def test_truncate_only_raises_floor():
    f = series({0: rat(1), -5: rat(2)}, low=-6)
    g = f.truncate(-3)
    assert g.low == -3
    assert g.support() == [0]
    assert f.truncate(-10).low == -6


def test_equality_compares_above_common_floor():
    f = series({0: rat(1), -5: rat(9)}, low=-6)
    g = series({0: rat(1)}, low=-3)
    assert f == g  # they agree at every exponent >= -3
    assert f != series({0: rat(2)}, low=-3)


def test_non_series_operands_are_refused():
    # __add__ and __eq__ return NotImplemented for a non-series, so Python
    # raises for the sum and falls back to identity for the comparison
    with pytest.raises(TypeError):
        LaurentSeries.one() + 1
    assert (LaurentSeries.one() == 1) is False


@pytest.mark.parametrize(
    "product",
    [
        pytest.param(lambda: SPoly.var(1) * "x", id="spoly_times_str"),
        pytest.param(lambda: SPoly.var(1) * 2.5, id="spoly_times_float"),
        pytest.param(lambda: 2.5 * SPoly.var(1), id="float_times_spoly"),
        pytest.param(lambda: series({0: SPoly.var(1)}) * 2.5, id="series_times_float"),
        pytest.param(lambda: 2.5 * series({0: 1}), id="float_times_series"),
        pytest.param(lambda: series({0: 1}) * "ab", id="series_times_str"),
    ],
)
def test_a_non_rational_scalar_is_refused(product):
    # a polynomial's scalars are the rationals, and a series' the rationals
    # and polynomials; any other scalar leaves no coefficient outside the ring
    with pytest.raises(TypeError):
        product()


def test_zero_series_repr():
    assert repr(LaurentSeries.zero()) == "0"
    assert repr(series({}, low=-3)) == "0 + O(z^-4)"


def test_ring_generic_coefficients():
    u = DiffPoly.jet(0)
    f = series({0: u}, low=-2)
    g = f * f
    assert g.coefficient(0) == u * u


def _random_series(rng) -> LaurentSeries:
    coeffs = {
        rng.randint(-8, 6): rat(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(rng.randint(0, 5))
    }
    if rng.random() < 0.3:
        low = None  # exact polynomial, known at every order
    else:
        low = min(coeffs, default=0) - rng.randint(0, 3)
    return LaurentSeries(coeffs, low)


def test_random_ring_axioms():
    import random

    rng = random.Random(20260823)
    for trial in range(40):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c), trial
        assert a * b == b * a, trial
        assert a * (b + c) == a * b + a * c, trial
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative(), trial
        assert (
            (a * b).substitute_negate()
            == a.substitute_negate() * b.substitute_negate()
        ), trial
        m, k = rng.randint(-3, 3), rng.randint(-3, 3)
        assert a.shift(m).shift(k) == a.shift(m + k), trial


# -- the product kernel against a pairwise reference -------------------------

_monos = st.lists(st.integers(0, 3), max_size=3).map(tuple)
_ints = st.integers(-4, 4)
_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _coefficient(draw, cls, fractions: bool):
    """An int or Fraction rational, or a polynomial of cls over them; an SPoly
    may carry its own cap."""
    values = _fracs if fractions else _ints
    if cls is None or draw(st.booleans()):
        return draw(values)
    p = cls(draw(st.dictionaries(_monos, values, min_size=1, max_size=3)))
    if cls is SPoly and draw(st.booleans()):
        p = p.truncate_weight(draw(st.integers(0, 6)))
    return p


@st.composite
def _factor_series(draw, cls, fractions: bool):
    """An exact or floored series with 0-4 coefficients."""
    # few exponents, so that several pairs, of different caps, meet at one
    coeffs = draw(st.dictionaries(st.integers(-3, 3), _coefficient(cls, fractions),
                                  max_size=4))
    if draw(st.booleans()):
        return LaurentSeries(coeffs)
    return LaurentSeries(coeffs, min(coeffs, default=0) - draw(st.integers(0, 3)))


def _pairwise(f: LaurentSeries, g: LaurentSeries, low) -> dict:
    """The product, one coefficient pair and one term pair at a time over
    Fractions: {exponent: (polynomial?, cap, {monomial: value})}, with every
    term above the exponent's smallest pair cap and every zero dropped."""
    out: dict = {}
    for e1, c1 in f.coefficients.items():
        for e2, c2 in g.coefficients.items():
            e = e1 + e2
            if low is not None and e < low:
                continue
            poly, cap, terms = out.setdefault(e, (False, None, {}))
            for c in (c1, c2):
                if isinstance(c, SparsePoly):
                    poly = True
                    if c.cap is not None:
                        cap = c.cap if cap is None else min(cap, c.cap)
            t1 = c1.terms if isinstance(c1, SparsePoly) else {(): c1}
            t2 = c2.terms if isinstance(c2, SparsePoly) else {(): c2}
            for m1, v1 in t1.items():
                for m2, v2 in t2.items():
                    size = max(len(m1), len(m2))
                    m = [a + b for a, b in zip(m1 + (0,) * size, m2 + (0,) * size)]
                    while m and not m[-1]:
                        m.pop()
                    m = tuple(m)
                    terms[m] = terms.get(m, 0) + Fraction(v1) * Fraction(v2)
            out[e] = (poly, cap, terms)
    return {
        e: (poly, cap, kept)
        for e, (poly, cap, terms) in out.items()
        if (kept := {m: v for m, v in terms.items()
                     if v and (cap is None or monomial_weight(m) <= cap)})
    }


def _values(series: LaurentSeries) -> list:
    return [v for c in series.coefficients.values()
            for v in (c.terms.values() if isinstance(c, SparsePoly) else [c])]


@pytest.mark.parametrize("cls", [None, SPoly, DiffPoly])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_kernel_equals_the_pairwise_product(cls, data):
    ints = data.draw(st.booleans())
    f = data.draw(_factor_series(cls, not ints))
    g = data.draw(_factor_series(cls, data.draw(st.booleans())))
    got = f * g
    want = _pairwise(f, g, got.low)
    assert set(got.coefficients) == set(want)
    for e, (poly, cap, terms) in want.items():
        c = got.coefficients[e]
        if poly:
            # a polynomial pair reaches e: one polynomial at the smallest cap
            assert type(c) is cls and c.cap == cap and c.terms == terms
        else:
            # only rational pairs reach e: a rational, never a constant
            assert not isinstance(c, SparsePoly) and {(): c} == terms
    # int in, int out; a Fraction in either factor, Fractions out
    fraction = any(isinstance(v, Fraction) for v in _values(f) + _values(g))
    assert {type(v) for v in _values(got)} <= {Fraction if fraction else int}


@settings(max_examples=40, deadline=None)
@given(_coefficient(SPoly, True), _fracs.filter(bool), st.integers(-3, 3))
def test_product_drops_an_exponent_whose_pairs_cancel(p, c, e):
    # (p + p z)(c z^e - c z^(e+1)) = p c z^e - p c z^(e+2): z^(e+1) cancels
    got = LaurentSeries({0: p, 1: p}) * LaurentSeries({e: c, e + 1: -c})
    assert e + 1 not in got.coefficients
    assert got.coefficient(e) == p * c and got.coefficient(e + 2) == -(p * c)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, 300), max_size=3).map(tuple), _ints,
                       max_size=3),
       st.dictionaries(st.lists(st.integers(0, 300), max_size=3).map(tuple), _fracs,
                       max_size=3))
def test_product_of_high_powers(t1, t2):
    # exponent sums past 255: each packed field is as wide as the largest sum
    p, q = DiffPoly(t1), DiffPoly(t2)
    want = _pairwise(LaurentSeries({0: p}), LaurentSeries({0: q}), None)
    assert (p * q).terms == (want[0][2] if want else {})


def test_exponent_takes_the_smallest_cap_among_its_pairs():
    # z^1 is reached at cap 1 (the capped factor times s1^2) and uncapped
    # (1 times the exact s1 + s1^3): it keeps s1 alone, at cap 1
    capped = SPoly({(1,): 1, (3,): 1}).truncate_weight(1)
    exact = SPoly({(1,): 1, (3,): 1})
    f = LaurentSeries({0: capped, 1: exact})
    got = f * LaurentSeries({0: SPoly.const(1), 1: SPoly({(2,): 1})})
    assert (got.coefficient(1).terms, got.coefficient(1).cap) == ({(1,): 1}, 1)
    assert (got.coefficient(2).terms, got.coefficient(2).cap) == ({(3,): 1, (5,): 1}, None)


def test_exponent_reached_only_by_rationals_stays_rational():
    f = LaurentSeries({0: Fraction(1, 2), 3: SPoly.var(1).truncate_weight(2)})
    g = LaurentSeries({0: 3, -1: Fraction(1, 3)})
    got = f * g
    assert type(got.coefficient(0)) is Fraction and got.coefficient(0) == Fraction(3, 2)
    assert type(got.coefficient(-1)) is Fraction and got.coefficient(-1) == Fraction(1, 6)
    assert got.coefficient(3) == SPoly({(1,): 3}) and got.coefficient(3).cap == 2
    # ints multiply to ints, and a Fraction of denominator 1 stays a Fraction
    ints = LaurentSeries({0: 2, 1: 3}) * LaurentSeries({1: 5})
    assert [type(v) for v in ints.coefficients.values()] == [int, int]
    one = LaurentSeries({0: 2}) * LaurentSeries({1: Fraction(5)})
    assert type(one.coefficient(1)) is Fraction and one.coefficient(1) == 10


def test_mixing_polynomial_classes_is_a_type_error():
    s, u = SPoly.var(1), DiffPoly.jet(0)
    with pytest.raises(TypeError):
        s * u
    with pytest.raises(TypeError):
        LaurentSeries({0: s}) * LaurentSeries({1: u})
    with pytest.raises(TypeError):
        LaurentSeries({0: s, 1: u}) * LaurentSeries({0: 1})
    with pytest.raises(TypeError):
        LaurentSeries({0: 1.5}) * LaurentSeries({0: 1})
