"""Correlator engine against closed forms and low-genus values.

The frozen reference tables in tests/data are checked by the release gate,
tests/test_acceptance.py (criteria 01-03).
"""
from __future__ import annotations

import multiprocessing
from itertools import combinations_with_replacement

import pytest

from kdvcorr import wk
from kdvcorr.npoint import npoint_window
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


def _direct_trace(ks):
    """<tau_K> from one trace of its whole point window, verify pass on,
    with no string or dilaton step."""
    windows = [(-k - 1, -k - 1) for k in sorted(ks, reverse=True)]
    coeffs = npoint_window(len(ks), windows, wk.m_matrix, verify=True)
    value = rat(coeffs.get(tuple(lo for lo, _ in windows), 0))
    for k in ks:
        value = value / odd_double_factorial(k)
    return value


def test_string_and_dilaton_relations_from_table():
    # the table fills its tau_0 and tau_1 entries by these equations, so they
    # are checked against a direct trace of each key
    for n, k_max in ((2, 13), (3, 9)):
        table = wk.n_point_table(n, k_max)
        low = {ks: v for ks, v in table.entries.items() if ks[0] <= 1}
        assert {ks[0] for ks in low} == {0, 1}, n
        for ks, v in low.items():
            assert v == _direct_trace(ks), ks


@pytest.mark.parametrize("n,k_max", [(2, 13), (3, 8), (4, 5), (5, 3)])
def test_reduced_correlator_equals_direct_trace(n, k_max):
    keys = [
        ks for ks in combinations_with_replacement(range(k_max + 1), n)
        if ks[0] <= 1 and wk.genus(ks) is not None
    ]
    assert any(ks[0] == 0 for ks in keys) and any(ks[0] == 1 for ks in keys)
    for ks in keys:
        assert wk.correlator(ks[::-1]) == _direct_trace(ks), ks


def test_correlator_traces_only_indices_at_least_two(monkeypatch):
    calls = []

    def recording(n, windows, build, *, verify=False):
        calls.append(([-lo - 1 for lo, _ in windows], verify))
        return npoint_window(n, windows, build, verify=verify)

    monkeypatch.setattr(wk, "npoint_window", recording)
    # fully reduced by string to the closed <tau_10>: nothing is traced
    assert wk.correlator((0, 13, 0, 0), verify=True) == wk.one_point(10)
    assert calls == []
    assert wk.correlator((5, 0, 3, 1, 2), verify=True) == _direct_trace((0, 1, 2, 3, 5))
    assert calls and all(min(ks) >= 2 and verify for ks, verify in calls)


def test_wide_correlators_with_tau_0_and_tau_1_match_dvv_oracle(psi):
    checked = 0
    for n, k_max in ((6, 4), (7, 3), (8, 3)):
        for ks in combinations_with_replacement(range(k_max + 1), n):
            if ks[1] <= 1 and wk.genus(ks) is not None:  # two or more of them
                assert wk.correlator(ks) == psi(ks), ks
                checked += 1
    assert checked > 30


@pytest.mark.parametrize("ks", [(2, 2, 2, 2, 2, 2, 4), (2, 2, 2, 2, 2, 3, 3)])
def test_width_seven_all_at_least_two_matches_dvv_oracle(psi, ks):
    # genus 4; no frozen table reaches a width-7 multiset with every index
    # >= 2, so each is read from one shifted two-point trace
    assert wk.correlator(ks) == psi(ks)


@pytest.mark.parametrize(
    "ks",
    [(2, 2, 3, 3), (2, 3, 4, 5, 6), (2, 2, 2, 2, 3, 4), (2, 3, 3, 4, 5, 7),
     (3, 3, 4, 4, 5, 5), (4, 4), (2, 3), (2, 2, 2), (3, 4, 5)],
)
def test_shifted_leaf_equals_point_leaf(ks):
    # both routes, each under its verify pass, on multisets with every index
    # >= 2 at widths 2 to 6, with repeated and distinct shifted indices; a
    # width-2 multiset has nothing to shift
    want = wk.point_leaf(True)(ks)
    assert want and wk.shifted_leaf(True)(ks) == want


def test_entry_reads_an_absent_key_as_zero():
    # a trace drops its zero coefficients, so a missing key is a zero number,
    # with or without a polynomial part to read
    coeffs = {(-3, -3): rat(4)}
    assert wk._entry(coeffs, (2, 2)) == rat(4, 225)
    assert wk._entry(coeffs, (2, 3)) == wk._entry(coeffs, (3, 2), (1,)) == 0


def test_wide_correlator_is_one_shifted_two_point_trace(monkeypatch, psi):
    # <tau_2^7 tau_6> (width 8): one width-2 trace at the points 2 and 6,
    # over M(z; T(s)), where the point window has 2520 cycle classes
    calls = []

    def recording(n, windows, build, **kw):
        calls.append((windows, build is wk.m_matrix, kw.get("verify")))
        return npoint_window(n, windows, build, **kw)

    monkeypatch.setattr(wk, "npoint_window", recording)
    ks = (2,) * 7 + (6,)
    assert wk.correlator(ks, verify=True) == psi(ks) == rat(59115119, 82944)
    assert calls == [([(-3, -3), (-7, -7)], False, True)]
    calls.clear()
    # width 5 stays on its point window
    assert wk.correlator((2, 3, 4, 5, 6)) == psi((2, 3, 4, 5, 6))
    assert [len(w) for w, point, _ in calls if point] == [5]


def _whole_box_entries(n, k_max, k_min):
    """The table from one trace of the whole box [k_min, k_max]^n, keeping
    the ordering with decreasing indices of each multiset."""
    coeffs = npoint_window(n, [(-k_max - 1, -k_min - 1)] * n, wk.m_matrix)
    entries = {}
    for key, c in coeffs.items():
        if list(key) != sorted(key):
            continue
        ks = tuple(sorted(-e - 1 for e in key))
        if wk.genus(ks) is None:
            continue
        v = rat(c)
        for k in ks:
            v = v / odd_double_factorial(k)
        if v:
            entries[ks] = v
    return entries


@pytest.mark.parametrize("n,k_max,k_min", [
    (2, 13, 0), (2, 13, 1), (3, 9, 0), (3, 9, 1), (4, 5, 0), (4, 5, 1),
    (5, 3, 0), (5, 3, 1),
    # the shift of a wide table starts above index 2
    (4, 7, 3), (5, 5, 3),
])
def test_reduced_table_equals_whole_box_trace(n, k_max, k_min):
    want = _whole_box_entries(n, k_max, k_min)
    assert any(ks[0] >= 2 for ks in want)
    assert any(ks[0] <= 1 for ks in want) == (k_min <= 1)
    assert wk.n_point_table(n, k_max, k_min).entries == want


@pytest.mark.parametrize("n,k_max", [(3, 7), (4, 5), (5, 3)])
def test_reduced_table_verify_and_workers(n, k_max):
    want = _whole_box_entries(n, k_max, 0)
    assert wk.n_point_table(n, k_max, verify=True).entries == want


def test_table_starts_no_pool_and_leaves_no_child():
    # every trace runs in this process
    verified = wk.n_point_table(5, 4, verify=True)
    assert multiprocessing.active_children() == []
    assert verified.entries == wk.n_point_table(5, 4).entries


def test_table_traces_each_width_box_at_most_once(monkeypatch):
    # a table of width 4 or more reads every leaf from one shifted width-2
    # trace, over M(z; T(s)) rather than M; a narrower one traces one point
    # box per leaf width
    calls = []

    def recording(n, windows, build, **kw):
        calls.append((windows, build is wk.m_matrix))
        return npoint_window(n, windows, build, **kw)

    monkeypatch.setattr(wk, "npoint_window", recording)
    wk.n_point_table(5, 4)
    assert calls == [([(-5, -3)] * 2, False)], calls
    calls.clear()
    wk.n_point_table(3, 9)
    assert sorted((len(w), point) for w, point in calls) == [
        (2, True), (3, True)
    ], calls
    assert all(w == [(-10, -3)] * len(w) for w, _ in calls), calls
    calls.clear()
    assert wk.n_point_table(4, 1).entries == _whole_box_entries(4, 1, 0)
    assert calls == []


@pytest.mark.parametrize("n,k_max", [(5, 5), (6, 3), (7, 3), (8, 3)])
def test_wide_table_matches_dvv_oracle(psi, n, k_max):
    # the oracle also reduces tau_0 and tau_1 by string and dilaton, so it is
    # independent here only on the all->=2 entries; the whole-box test above
    # covers the rest
    want = {}
    for ks in combinations_with_replacement(range(k_max + 1), n):
        value = psi(ks)
        if value:
            want[ks] = value
    assert wk.n_point_table(n, k_max).entries == want


def test_table_input_validation():
    with pytest.raises(ValueError):
        wk.n_point_table(0, 5)
    with pytest.raises(ValueError):
        wk.n_point_table(2, 3, k_min=5)
    with pytest.raises(ValueError):
        wk.n_point_table(2, 3, k_min=-1)


def test_one_point_table_width():
    table = wk.n_point_table(1, 13)
    assert set(table.entries) == {(1,), (4,), (7,), (10,), (13,)}
    assert table.entries[(4,)] == rat(1, 1152)


def test_correlator_order_invariance():
    assert wk.correlator((4, 2, 3)) == wk.correlator((2, 3, 4))
    assert wk.correlator((5, 2, 2)) == wk.correlator((2, 5, 2))
