"""Truncated Laurent series: floor algebra and ring operations."""
from __future__ import annotations

import pytest

from kdvcorr.rationals import rat
from kdvcorr.series import LaurentSeries


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


def test_ring_generic_coefficients():
    from kdvcorr.diffpoly import DiffPoly

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
