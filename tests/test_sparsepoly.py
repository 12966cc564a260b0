"""Property tests of the shared sparse-polynomial core behind DiffPoly and
SPoly, and of the accumulate helper they and the series share."""
from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr.diffpoly import DiffPoly
from kdvcorr.partitions import SPoly, monomial_weight
from kdvcorr.rationals import rat
from kdvcorr.series import LaurentSeries, add_into

CLASSES = [DiffPoly, SPoly]

# exponent tuples may carry trailing zeros: the constructor must strip them
_monos = st.lists(st.integers(0, 2), max_size=4).map(tuple)
_coeffs = st.builds(rat, st.integers(-3, 3), st.integers(1, 3))
_terms = st.dictionaries(_monos, _coeffs, max_size=4)
_props = settings(max_examples=60, deadline=None)


def _assert_normal(p) -> None:
    for mono, c in p.terms.items():
        assert c, p.terms
        assert not mono or mono[-1], p.terms


@pytest.mark.parametrize("cls", CLASSES)
@_props
@given(_terms, _terms)
def test_ring_results_are_in_normal_form(cls, t1, t2):
    p, q = cls(t1), cls(t2)
    for r in (p, q, p + q, p - q, p * q, -p, p * rat(1, 2), p - p):
        _assert_normal(r)
    if cls is DiffPoly:
        for r in (p.d_x(), (p * q).d_x().d_x()):
            _assert_normal(r)
        for j in range(4):
            _assert_normal(p.partial(j))


@pytest.mark.parametrize("cls", CLASSES)
@_props
@given(_terms, _terms, _terms)
def test_ring_axioms(cls, t1, t2, t3):
    p, q, r = cls(t1), cls(t2), cls(t3)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - q == -(q - p)
    assert 2 * p == p + p == p * 2


_caps = st.integers(0, 8)


def _upto(p, cap) -> dict:
    """The terms of p of weight at most cap."""
    return {m: c for m, c in p.terms.items() if monomial_weight(m) <= cap}


_int_terms = st.dictionaries(_monos, st.integers(-3, 3), max_size=4)


@_props
@given(st.one_of(_terms, _int_terms), st.one_of(_terms, _int_terms), _caps,
       st.one_of(st.none(), _caps))
def test_capped_product_truncates_the_uncapped_one(t1, t2, cap, other_cap):
    p, q = SPoly(t1), SPoly(t2)
    low = cap if other_cap is None else min(cap, other_cap)
    if other_cap is not None:
        q = q.truncate_weight(other_cap)
    pc = p.truncate_weight(cap)
    exact = _upto(SPoly(t1) * SPoly(t2), low)
    # ints stay ints, and a Fraction in either factor makes every term one
    kind = int if all(type(c) is int for c in (*t1.values(), *t2.values())) else Fraction
    for capped in (pc * q, q * pc):
        assert capped.cap == low
        assert capped.terms == exact
        assert all(type(c) is kind for c in capped.terms.values())
    # the same product as the one coefficient of two series, dropped if zero
    in_series = (LaurentSeries({0: pc}) * LaurentSeries({0: q})).coefficients
    if exact:
        assert (in_series[0].cap, in_series[0].terms) == (low, exact)
    else:
        assert not in_series


@_props
@given(_terms, _terms, _caps, st.one_of(st.none(), _caps))
def test_sum_keeps_the_smaller_cap(t1, t2, cap, other_cap):
    p, q = SPoly(t1).truncate_weight(cap), SPoly(t2)
    low = cap if other_cap is None else min(cap, other_cap)
    if other_cap is not None:
        q = q.truncate_weight(other_cap)
    exact_sum, exact_diff = SPoly(t1) + SPoly(t2), SPoly(t1) - SPoly(t2)
    for got, exact in ((p + q, exact_sum), (q + p, exact_sum), (p - q, exact_diff)):
        assert got.cap == low
        assert all(monomial_weight(m) <= low for m in got.terms)
        assert got.terms == _upto(exact, low)


@_props
@given(_terms, _terms, _terms, _caps)
def test_capped_ring_axioms(t1, t2, t3, cap):
    p, q, r = SPoly(t1).truncate_weight(cap), SPoly(t2), SPoly(t3)
    for got in ((p * q) * r, p * (q * r), q * (r * p)):
        assert got.cap == cap
        assert got.terms == _upto(SPoly(t1) * SPoly(t2) * SPoly(t3), cap)
    assert (p * (q + r)).terms == (p * q + p * r).terms
    # a capped polynomial equals the exact one up to its cap
    assert p == SPoly(t1) and SPoly(t1) == p


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_each_term(cls):
    p = cls({(2, 0, 1): rat(-1, 2), (): 3})
    v, first = cls._var, cls._first_index
    assert repr(p) == f"(3)*1 + (-1/2)*{v}{first}^2*{v}{first + 2}"
    assert repr(cls()) == "0"


@pytest.mark.parametrize("cls", CLASSES)
def test_a_non_rational_operand_is_refused(cls):
    p = cls({(1,): 1})
    with pytest.raises(TypeError):
        p + object()
    with pytest.raises(TypeError):
        p - object()
    assert (p == object()) is False


@pytest.mark.parametrize("cls", CLASSES)
def test_a_constant_minus_a_polynomial(cls):
    p = cls({(1,): rat(2, 3), (): 1})
    assert (1 - p).terms == {(1,): rat(-2, 3)}
    assert rat(1, 2) - p == cls({(1,): rat(-2, 3), (): rat(-1, 2)})


def test_cap_survives_pickling():
    p = (SPoly.var(1) + SPoly.var(3)).truncate_weight(2)
    back = pickle.loads(pickle.dumps(p))
    assert back.cap == 2 and back.terms == p.terms
    assert (back * SPoly.var(1)).terms == {(2,): 1}
    assert p.truncate_weight(5).cap == 2


def test_add_into_drops_vanishing_sums_and_never_adds_to_zero():
    class NoZeroPlus:
        """A ring element that refuses `0 + x`."""

        def __radd__(self, other):
            raise AssertionError("formed 0 + x")

    acc: dict = {}
    x = NoZeroPlus()
    add_into(acc, "k", x)
    assert acc["k"] is x
    add_into(acc, 1, rat(1, 2))
    add_into(acc, 1, rat(-1, 2))
    assert 1 not in acc
    add_into(acc, 2, 0)
    assert 2 not in acc
