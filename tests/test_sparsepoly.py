"""Property tests of the shared sparse-polynomial core behind DiffPoly and
SPoly, and of the accumulate helper they and the series share."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr.diffpoly import DiffPoly
from kdvcorr.partitions import SPoly, weight_cap
from kdvcorr.rationals import rat
from kdvcorr.series import add_into

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
        for r in (p.d_x(), (p * q).d_x_pow(2)):
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


@_props
@given(_terms, _terms, st.integers(0, 8))
def test_capped_product_truncates_the_uncapped_one(t1, t2, cap):
    p, q = SPoly(t1), SPoly(t2)
    full = p * q
    with weight_cap(cap):
        capped = p * q
    assert capped == full.truncate_weight(cap)


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
