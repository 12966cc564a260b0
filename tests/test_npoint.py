"""Cyclic trace engine: windows, budgets, verification, worker determinism."""
from __future__ import annotations

import pytest

from kdvcorr import npoint, wk
from kdvcorr.npoint import (
    TruncationInstability,
    _build_mats,
    _class_term,
    _geo_expansions,
    budgets,
    cycle_classes,
    npoint_window,
)
from kdvcorr.partitions import SPoly
from kdvcorr.rationals import odd_double_factorial, rat


def test_cycle_classes_counts():
    # (n-1)!/2 classes for n >= 3, one class at n = 2 and n = 3
    assert cycle_classes(2) == [((0, 1), 1)]
    assert cycle_classes(3) == [((0, 1, 2), 2)]
    four = cycle_classes(4)
    assert len(four) == 3
    assert all(mult == 2 for _, mult in four)
    assert sum(m for _, m in cycle_classes(5)) == 24
    with pytest.raises(ValueError):
        cycle_classes(1)


def test_budgets_cover_windows():
    windows = [(-5, -1), (-7, -2)]
    floors, exports = budgets(windows, 0)
    assert all(f <= lo for f, (lo, _) in zip(floors, windows))
    wide_floors, wide_exports = budgets(windows, 0, widen=4)
    assert all(w <= f for w, f in zip(wide_floors, floors))
    assert all(w >= e for w, e in zip(wide_exports, exports))


def test_single_target_window_matches_full_box():
    box = npoint_window(2, [(-6, -1), (-6, -1)], wk.m_matrix)
    spot = npoint_window(2, [(-4, -4), (-3, -3)], wk.m_matrix)
    assert spot[(-4, -3)] == box[(-4, -3)]


def test_window_rejects_empty_ranges():
    with pytest.raises(ValueError):
        npoint_window(2, [(-1, -3), (-1, -3)], wk.m_matrix)


def test_two_point_window_values():
    # <tau_3 tau_2> = 29/5760 sits at exponents (-4, -3) up to the (2k+1)!!
    # insertion weights
    box = npoint_window(2, [(-4, -4), (-3, -3)], wk.m_matrix)
    value = box[(-4, -3)]
    assert value / odd_double_factorial(3) / odd_double_factorial(2) == rat(
        29, 5760
    )


def test_verify_passes_on_consistent_data():
    a = npoint_window(2, [(-5, -1), (-5, -1)], wk.m_matrix)
    b = npoint_window(2, [(-5, -1), (-5, -1)], wk.m_matrix, verify=True)
    assert a == b


def test_verify_flags_floor_sensitive_matrices():
    def unstable(floor):
        bad = rat(floor)
        return [[{-2: bad}, {0: rat(1)}], [{0: rat(1)}, {-2: -bad}]]

    with pytest.raises(TruncationInstability):
        npoint_window(2, [(-4, -2), (-4, -2)], unstable, verify=True)


def test_verify_flags_half_depth_matrices():
    def clipped(floor):
        return wk.m_matrix(-max(2, (-floor) // 2))

    with pytest.raises(TruncationInstability):
        npoint_window(2, [(-8, -1), (-8, -1)], clipped, verify=True)


def test_worker_counts_agree():
    base = npoint_window(3, [(-5, -1)] * 3, wk.m_matrix)
    for workers in (2, 4):
        assert (
            npoint_window(3, [(-5, -1)] * 3, wk.m_matrix, workers=workers)
            == base
        )


def test_results_only_contain_window_keys():
    # unequal windows, so each variable is held to its own range
    for windows in (
        [(-4, -1), (-6, -2)],
        [(-5, -1), (-7, -3), (-4, -2)],
        [(-4, -1), (-5, -2), (-3, -1), (-6, -3)],
    ):
        box = npoint_window(len(windows), windows, wk.m_matrix)
        assert box
        for key in box:
            for e, (lo, hi) in zip(key, windows):
                assert lo <= e <= hi


@pytest.mark.parametrize("verify, calls", [(False, 2), (True, 3)])
def test_factory_called_once_per_pass(verify, calls):
    # the top-exponent probe, then one call per pass at its deepest floor
    floors = []

    def counting(floor):
        floors.append(floor)
        return wk.m_matrix(floor)

    windows = [(-4, -1), (-5, -2), (-3, -1), (-6, -3)]
    got = npoint_window(4, windows, counting, verify=verify)
    assert len(floors) == calls
    assert got == npoint_window(4, windows, wk.m_matrix)


def test_pool_never_larger_than_class_count(monkeypatch):
    # stands in for the pool and runs map in-process, so no worker starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(npoint, "ProcessPoolExecutor", InlinePool)
    windows = [(-4, -1)] * 4
    got = npoint_window(4, windows, wk.m_matrix, workers=64)
    assert sizes == [3]  # n = 4 has 3 cycle classes
    assert got == npoint_window(4, windows, wk.m_matrix)


@pytest.mark.parametrize("n, windows", [(4, [(-5, -1)] * 4), (5, [(-4, -1)] * 5)])
def test_process_pool_matches_serial(monkeypatch, n, windows):
    # n = 4 and 5 have 3 and 12 cycle classes, so workers > 1 starts a pool
    # that receives the integer-scaled matrices
    pools = []

    class CountingPool(npoint.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(npoint, "ProcessPoolExecutor", CountingPool)
    serial = npoint_window(n, windows, wk.m_matrix, workers=1)
    assert pools == []
    pooled = npoint_window(n, windows, wk.m_matrix, workers=2)
    assert pools == [2]
    assert pooled == serial
    assert serial


def _unscaled_window(n, windows, mat_factory, correct=True):
    """npoint_window rebuilt by hand from _class_term on the factory's own
    (unscaled) coefficients: same budgets, classes summed with their
    multiplicities, and the two-point correction added here."""
    probe = mat_factory(-1)
    mat_top = max(max(ent) for row in probe for ent in row if ent)
    floors, exports = budgets(windows, mat_top)
    mats = _build_mats(mat_factory, floors)
    geo_items = _geo_expansions(n, exports)
    acc = {}
    for cyc, weight in cycle_classes(n):
        for key, c in _class_term(cyc, mats, geo_items, windows, n).items():
            acc[key] = acc.get(key, 0) - weight * c
    if n == 2 and correct:
        # -(y_1 + y_2)/(y_1 - y_2)^2 = -sum_m (2m+1) y_2^m y_1^{-m-1}
        (lo0, hi0), (lo1, hi1) = windows
        for m in range(max(0, lo1), hi1 + 1):
            if lo0 <= -m - 1 <= hi0:
                acc[(-m - 1, m)] = acc.get((-m - 1, m), 0) - (2 * m + 1)
    return {key: c for key, c in acc.items() if c}


def _mixed_m_matrix(floor):
    """wk.m_matrix with its integral coefficients given as plain ints."""
    return [
        [
            {e: int(c) if c.denominator == 1 else c for e, c in ent.items()}
            for ent in row
        ]
        for row in wk.m_matrix(floor)
    ]


@pytest.mark.parametrize(
    "n, windows",
    [
        (2, [(-7, 1), (-7, 2)]),  # reaches the two-point correction
        (3, [(-6, -1)] * 3),
        (4, [(-4, -1)] * 4),
    ],
)
@pytest.mark.parametrize("factory", [wk.m_matrix, _mixed_m_matrix])
def test_scaled_trace_matches_unscaled(n, windows, factory):
    expected = _unscaled_window(n, windows, factory)
    got = npoint_window(n, windows, factory)
    assert got == expected
    assert expected
    if n == 2:
        # the window reaches keys where the correction term matters
        assert _unscaled_window(n, windows, factory, correct=False) != expected


def test_mixed_factory_really_mixes():
    ent = [c for row in _mixed_m_matrix(-9) for d in row for c in d.values()]
    assert any(type(c) is int for c in ent)
    assert any(c.denominator > 1 for c in ent)


def test_spoly_coefficients_stay_spoly():
    def spoly_m_matrix(floor):
        return [
            [{e: SPoly.const(c) for e, c in ent.items()} for ent in row]
            for row in wk.m_matrix(floor)
        ]

    windows = [(-6, -1)] * 3
    got = npoint_window(3, windows, spoly_m_matrix)
    plain = npoint_window(3, windows, wk.m_matrix)
    assert got.keys() == plain.keys()
    assert all(isinstance(c, SPoly) for c in got.values())
    assert all(got[key] == plain[key] for key in plain)
