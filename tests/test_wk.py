"""Correlator engine against closed forms and low-genus values.

The frozen reference tables in tests/data are checked by the release gate,
tests/test_acceptance.py (criteria 01-03).
"""
from __future__ import annotations

import pytest

from kdvcorr import wk
from kdvcorr.rationals import factorial, odd_double_factorial, rat


def test_genus():
    assert wk.genus((3, 2)) == 2
    assert wk.genus((1,)) == 1
    assert wk.genus((0, 0, 0)) == 0
    assert wk.genus((2, 2)) is None
    assert wk.genus((0, 0)) is None  # would need g = 1/3


def test_one_point_closed_form():
    for g in range(1, 21):
        assert wk.one_point(3 * g - 2) == rat(1, 24**g * factorial(g)), g


def test_one_point_vanishes_off_dimension():
    for k in (0, 2, 3, 5, 6, 8):
        assert wk.one_point(k) == 0, k
    with pytest.raises(ValueError):
        wk.one_point(-1)


def test_one_point_series_matches_one_point():
    low = -40
    series = wk.one_point_series(low)
    for g in range(1, 7):
        e = -6 * g + 2
        value = series.coefficient(e) / odd_double_factorial(3 * g - 2)
        assert value == wk.one_point(3 * g - 2), g


def test_correlator_low_cases():
    assert wk.correlator((0, 0, 0)) == rat(1)
    assert wk.correlator((1,)) == rat(1, 24)
    assert wk.correlator((0, 2)) == rat(1, 24)
    assert wk.correlator((1, 1)) == rat(1, 24)
    assert wk.correlator((3, 2)) == rat(29, 5760)
    assert wk.correlator((2, 3)) == rat(29, 5760)
    assert wk.correlator((2, 2)) == 0
    assert wk.correlator((2, 2, 2, 4)) == rat(53, 1152)


def test_correlator_input_validation():
    with pytest.raises(ValueError):
        wk.correlator(())
    with pytest.raises(ValueError):
        wk.correlator((-1, 2))


def test_string_and_dilaton_relations_from_table():
    table = wk.n_point_table(2, 13)
    for g in range(1, 5):
        k = 3 * g - 1
        assert table.entries[(0, k)] == wk.one_point(k - 1), g
        assert table.entries[(1, k - 1)] == (2 * g - 1) * wk.one_point(k - 1), g


def test_table_input_validation():
    with pytest.raises(ValueError):
        wk.n_point_table(0, 5)
    with pytest.raises(ValueError):
        wk.n_point_table(2, 3, k_min=5)
    with pytest.raises(ValueError):
        wk.n_point_table(2, 3, k_min=-1)


def test_table_verify_and_workers_agree():
    base = wk.n_point_table(3, 7)
    assert wk.n_point_table(3, 7, verify=True).entries == base.entries
    assert wk.n_point_table(3, 7, workers=4).entries == base.entries


def test_one_point_table_width():
    table = wk.n_point_table(1, 13)
    assert set(table.entries) == {(1,), (4,), (7,), (10,), (13,)}
    assert table.entries[(4,)] == rat(1, 1152)


def test_correlator_order_invariance():
    assert wk.correlator((4, 2, 3)) == wk.correlator((2, 3, 4))
    assert wk.correlator((5, 2, 2)) == wk.correlator((2, 5, 2))
