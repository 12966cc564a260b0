"""Cyclic trace engine: windows, budgets, verification, worker determinism."""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr import npoint, wk, wp
from kdvcorr.npoint import (
    _build_mat,
    _class_term,
    budgets,
    cycle_classes,
    npoint_window,
)
from kdvcorr.partitions import SPoly
from kdvcorr.rationals import odd_double_factorial, rat

ROOT = Path(__file__).resolve().parents[1]


def test_cycle_classes_counts():
    # (n-1)!/2 classes for n >= 3, one class at n = 2 and n = 3
    assert cycle_classes(2) == [((0, 1), 1)]
    assert cycle_classes(3) == [((0, 1, 2), 2)]
    four = cycle_classes(4)
    assert len(four) == 3
    assert all(mult == 2 for _, mult in four)
    assert sum(m for _, m in cycle_classes(5)) == 24
    for n in range(3, 8):
        # each ordering of 1..n-1 after 0 is a class or the reverse of one
        reps = [cyc[1:] for cyc, _ in cycle_classes(n)]
        both = reps + [p[::-1] for p in reps]
        assert sorted(both) == sorted(permutations(range(1, n)))
    with pytest.raises(ValueError):
        cycle_classes(1)


def test_budgets_cover_windows():
    # one floor per pass, min_v(lo_v - pos_v) with pos_v the exports of the
    # larger variables, and one export cap per variable
    for windows, floor, exports in (
        ([(-5, -1), (-7, -2), (-3, -1)], -23, [6, 14, 24]),  # pos 0, 6, 20
        ([(-20, -1), (-1, -1), (40, 40)], -22, [21, 23, 5]),  # pos 0, 21, 44
        ([(-4, -1)] * 3, -19, [5, 10, 20]),  # pos 0, 5, 15
    ):
        assert budgets(windows) == (floor, exports)
        wide_floor, wide_exports = budgets(windows, widen=4)
        assert wide_floor < floor
        assert all(w >= e for w, e in zip(wide_exports, exports))
    with pytest.raises(TypeError):
        budgets(windows, 4)  # widen is keyword-only


def _tops(mat):
    """The top y-exponent of each entry of a factory matrix."""
    return tuple(max(d) for row in mat for d in row)


def _production_factories():
    yield "m_matrix", wk.m_matrix
    waves = [("wp", cap, wp._wp_times(cap)) for cap in range(7)]
    waves += [("kappa", cap, wp.kappa_times(cap)) for cap in range(5)]
    waves += [(f"psi t_{a}", 3, {a: SPoly.var(1)}) for a in range(4)]
    for name, cap, times in waves:
        dw = wp.deformed_wave(times, cap)
        yield f"{name} cap {cap}", lambda floor, dw=dw: wp.m_kappa_matrix(dw, floor)


def test_every_production_factory_tops_out_at_y1():
    # the budgets take M's top term to be y^1, in the lower-left entry: the
    # psi matrix, the WP and kappa waves and the psi time shifts all agree
    for name, factory in _production_factories():
        for floor in (-1, -20):
            assert _tops(factory(floor)) == (-1, 0, 1, -1), (name, floor)


def test_factory_with_a_term_above_y1_is_refused():
    # budgets built for y^1 would cut this matrix's products short
    def steep(floor):
        mat = wk.m_matrix(floor)
        mat[1][0][2] = rat(1)
        return mat

    with pytest.raises(ValueError, match="above y"):
        npoint_window(2, [(-4, -1), (-4, -1)], steep)


def test_single_target_window_matches_full_box():
    box = npoint_window(2, [(-6, -1), (-6, -1)], wk.m_matrix)
    spot = npoint_window(2, [(-4, -4), (-3, -3)], wk.m_matrix)
    assert spot[(-4, -3)] == box[(-4, -3)]


def test_window_rejects_empty_ranges():
    with pytest.raises(ValueError):
        npoint_window(2, [(-1, -3), (-1, -3)], wk.m_matrix)


@pytest.mark.parametrize("windows", [[(2, 3), (2, 3)], [(-1, -1), (3, 4)],
                                     [(5, 5), (-3, -1), (-3, -1)]])
@pytest.mark.parametrize("verify", [False, True])
def test_window_above_the_matrix_top_is_empty(windows, verify):
    # a variable whose floor lies above y^1 takes no matrix term, so every
    # product of the ordering vanishes: no keys, and no empty-slice error
    assert npoint_window(len(windows), windows, wk.m_matrix, verify=verify) == {}


@pytest.mark.parametrize("n", [2, 3])
def test_window_reaching_above_the_matrix_top_adds_nothing(n):
    below = npoint_window(n, [(-3, -1)] * n, wk.m_matrix, verify=True)
    assert below and npoint_window(n, [(-3, 2)] * n, wk.m_matrix, verify=True) == below


@pytest.mark.parametrize("workers", [0, -3])
def test_window_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        npoint_window(2, [(-4, -3), (-4, -3)], wk.m_matrix, workers=workers)


@pytest.mark.parametrize("n, count", [(2, 3), (3, 2)])
def test_window_count_must_match_n(n, count):
    # one window per variable: an extra one is not dropped unread, and a
    # missing one is no bare IndexError
    with pytest.raises(ValueError, match=f"{count} windows for {n} variables"):
        npoint_window(n, [(-4, -3)] * count, wk.m_matrix)


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


@pytest.mark.parametrize("verify, calls", [(False, 1), (True, 2)])
def test_factory_called_once_per_pass(verify, calls):
    # the budgets need no matrix, so each pass makes one call, at its
    # deepest floor
    floors = []

    def counting(floor):
        floors.append(floor)
        return wk.m_matrix(floor)

    windows = [(-4, -1), (-5, -2), (-3, -1), (-6, -3)]
    got = npoint_window(4, windows, counting, verify=verify)
    assert len(floors) == calls
    assert got == npoint_window(4, windows, wk.m_matrix)


def _s1_m_matrix():
    """M over the s_1 ring: the kappa-deformed matrix of the wave at
    s = (s_1, 0, ...), weight cap 4."""
    dw = wp.deformed_wave(wp._wp_times(4), 4)
    return lambda floor: wp.m_kappa_matrix(dw, floor)


@pytest.mark.parametrize("ring", ["psi", "s1"])
@pytest.mark.parametrize(
    "windows",
    [
        [(-3, -3), (-7, -7), (-2, -2), (-5, -5)],  # <tau_2 tau_6 tau_1 tau_4>
        [(-5, -2), (-3, -1), (-7, -4)],
    ],
)
def test_every_window_order_traces_alike(ring, windows):
    # the n-point function is symmetric, so permuting the windows permutes
    # the keys and nothing else; the engine picks its own trace order, so
    # the factory is asked for the same deepest floor every time
    factory = wk.m_matrix if ring == "psi" else _s1_m_matrix()
    n = len(windows)
    results, deepest = [], set()
    for perm in permutations(range(n)):
        floors = []

        def counting(floor):
            floors.append(floor)
            return factory(floor)

        got = npoint_window(n, [windows[v] for v in perm], counting)
        # entry j of a key belongs to windows[perm[j]]
        back = [perm.index(v) for v in range(n)]
        results.append({tuple(key[j] for j in back): c for key, c in got.items()})
        deepest.add(min(floors))
    assert results[0]
    assert all(r == results[0] for r in results)
    assert len(deepest) == 1


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the pool and runs map in-process, so no worker starts;
    returns the sizes of the pools entered, in order."""
    entered = []

    class InlinePool:
        def __init__(self, max_workers):
            self.size = max_workers

        def __enter__(self):
            entered.append(self.size)
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(npoint, "ProcessPoolExecutor", InlinePool)
    return entered


def test_pool_never_larger_than_class_count(inline_pool):
    windows = [(-4, -1)] * 4
    got = npoint_window(4, windows, wk.m_matrix, workers=64)
    assert inline_pool == [3]  # n = 4 has 3 cycle classes
    assert got == npoint_window(4, windows, wk.m_matrix)


def test_verify_pass_uses_the_pool(inline_pool):
    windows = [(-4, -1)] * 4
    got = npoint_window(4, windows, wk.m_matrix, verify=True, workers=2)
    assert inline_pool == [2]  # one pool serves the trace and the check
    assert got == npoint_window(4, windows, wk.m_matrix)


START_METHOD_SCRIPT = """
import multiprocessing, sys
from kdvcorr import wk, wp

multiprocessing.set_start_method(sys.argv[1])
assert wp.wp_volume(0, 4, workers=2, verify=True) == wp.wp_volume(0, 4)
assert wk.n_point_table(5, 4, workers=2) == wk.n_point_table(5, 4)
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_agree_with_serial_under_start_method(method, src_env):
    # a spawned or forkserver worker imports kdvcorr afresh, so it sees no
    # state of the parent process beyond the pickled matrices it receives
    proc = subprocess.run(
        [sys.executable, "-c", START_METHOD_SCRIPT, method],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


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
    (unscaled) coefficients: same budgets, one matrix cut at the pass's
    floor, classes summed with their multiplicities, and the two-point
    correction added here."""
    floor, exports = budgets(windows)
    mat = [
        [sorted(t for t in ent.items() if t[0] >= floor) for ent in row]
        for row in mat_factory(floor)
    ]
    acc = {}
    for cyc, weight in cycle_classes(n):
        for key, c in _class_term(cyc, mat, exports, windows, n).items():
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


def _capped_s1_factory(cap):
    """wk.m_matrix with the coefficient c of y^e read as c s_1^(1-e) over the
    s-polynomials, at weight cap `cap` (None: exact)."""

    def coefficient(e, c):
        p = SPoly({(1 - e,): c})
        return p if cap is None else p.truncate_weight(cap)

    def build(floor):
        return [
            [{e: coefficient(e, c) for e, c in ent.items()} for ent in row]
            for row in wk.m_matrix(floor)
        ]

    return build


@pytest.mark.parametrize(
    "n, windows",
    [
        (2, [(-7, 1), (-7, 2)]),  # reaches the two-point correction
        (3, [(-6, -1)] * 3),
        (4, [(-4, -1)] * 4),
    ],
)
@pytest.mark.parametrize(
    "factory",
    [wk.m_matrix, _mixed_m_matrix, pytest.param(_capped_s1_factory(6), id="s1_cap6")],
)
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


# Oracle checks of the engine that share nothing with it: DVV numbers and
# Dijkgraaf's two-point function from perfbench/oracles.py, and the frozen
# three-point release table; `oracles` and `psi` are fixtures of conftest.py.


def _weighted(oracles, value, ks):
    """The traced coefficient of <tau_K>: value times prod (2k+1)!!."""
    return value * prod(oracles.double_factorial(2 * k + 1) for k in ks)


# an index window [a, b] is the exponent window [-b-1, -a-1]; an index of -1
# or -2 reaches the exponents 0 and 1, where the n-point function has no term,
# and a window of indices -4 and -3 alone lies wholly above y^1
def _index_windows(top):
    """Exponent windows of index windows [a, b] with -4 <= a <= b <= top."""
    return st.tuples(st.integers(-4, top), st.integers(-4, top)).map(
        lambda ab: (-max(ab) - 1, -min(ab) - 1)
    )


def _dvv_box(oracles, psi, windows):
    """The DVV numbers of a box, weighted as the trace keys them."""
    want = {}
    for key in product(*(range(lo, hi + 1) for lo, hi in windows)):
        ks = [-e - 1 for e in key]
        if min(ks) >= 0 and oracles.genus_of(ks) is not None:
            want[key] = _weighted(oracles, psi(ks), ks)
    return want


@settings(max_examples=40, deadline=None)
@given(st.lists(_index_windows(8), min_size=2, max_size=4, unique=True))
def test_random_boxes_equal_dvv_numbers(oracles, psi, windows):
    # distinct windows drawn in any order, so a higher or wider window may
    # stand before or after a lower one in the magnitude order
    want = _dvv_box(oracles, psi, windows)
    assert npoint_window(len(windows), windows, wk.m_matrix) == want


@settings(max_examples=15, deadline=None)
@given(st.lists(_index_windows(5), min_size=5, max_size=5, unique=True))
def test_random_five_point_boxes_equal_dvv_numbers(oracles, psi, windows):
    # at five variables the depths that the variables' windows need lie
    # furthest apart, and the one matrix of the pass serves them all
    want = _dvv_box(oracles, psi, windows)
    assert npoint_window(5, windows, wk.m_matrix) == want


@settings(max_examples=25, deadline=None)
@given(st.lists(_index_windows(8), min_size=3, max_size=4, unique=True),
       st.integers(0, 9))
def test_random_boxes_over_capped_s1_scale_the_psi_trace(windows, cap):
    # every product reaching a key weighs minus the key's total, so over the
    # s_1 ring each coefficient is the psi one times s_1^(-total), kept up to
    # the cap (n >= 3: the two-point correction is no trace term)
    psi = npoint_window(len(windows), windows, wk.m_matrix)
    want = {
        key: SPoly({(-sum(key),): c}) for key, c in psi.items() if -sum(key) <= cap
    }
    got = npoint_window(len(windows), windows, _capped_s1_factory(cap))
    assert got == want
    assert all(c.cap == cap for c in got.values())


def test_packed_keys_hold_large_exponents(oracles):
    # <tau_100 tau_4> at genus 35: partial exponents down to -107 take 8-bit
    # packed fields, near both ends of their range
    two = oracles.two_point_numbers(104)
    got = npoint_window(2, [(-101, -101), (-5, -5)], wk.m_matrix)
    assert got == {(-101, -5): _weighted(oracles, two[(4, 100)], (100, 4))}


def test_three_point_box_to_index_22_matches_release_table(oracles):
    frozen = json.loads((ROOT / "tests" / "data" / "three_point.json").read_text())
    windows = [(-23, -18), (-21, -16), (-19, -14)]
    want = {}
    for key in product(*(range(lo, hi + 1) for lo, hi in windows)):
        ks = [-e - 1 for e in key]
        if oracles.genus_of(ks) is not None:
            num, den = frozen[",".join(map(str, sorted(ks)))]
            want[key] = _weighted(oracles, Fraction(int(num), int(den)), ks)
    assert want
    assert npoint_window(3, windows, wk.m_matrix) == want


def test_capped_ring_never_returns_a_zero_key():
    # the coefficient of y^e carries s_1^(1-e); a key's total drops by 1 per
    # edge, so every product reaching a key weighs what its total and step
    # fix, and a whole key weighs minus its total.  At weight cap 8 the keys
    # of total below -8, and every partial product on the way to them, vanish
    n, windows = 3, [(-6, -1), (-5, -2), (-7, -1)]
    exact = npoint_window(n, windows, _capped_s1_factory(None))
    got = npoint_window(n, windows, _capped_s1_factory(8))
    want = {key: c for key, c in exact.items() if -sum(key) <= 8}
    assert got == want
    assert want and len(want) < len(exact)
    floor, exports = budgets(windows)
    scale, mat = _build_mat(_capped_s1_factory(8), floor)
    # the s-polynomials clear their denominators like rationals: the trace
    # runs over integer coefficients and keeps the cap
    assert type(scale) is int and scale > 1
    entries = [c for row in mat for it in row for _, c in it]
    assert entries
    for c in entries:
        assert isinstance(c, SPoly) and c.cap == 8
        assert all(type(x) is int for x in c.terms.values())
    for cyc, _ in cycle_classes(n):
        term = _class_term(cyc, mat, exports, windows, n)
        assert term and all(term.values())
        assert all(-sum(key) <= 8 for key in term)
