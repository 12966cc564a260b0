"""Cyclic trace engine: windows, budgets, verification."""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr import wk, wp
from kdvcorr.npoint import (
    _build_mat,
    _class_term,
    budgets,
    cycle_classes,
    npoint_window,
)
from kdvcorr.diffpoly import DiffPoly
from kdvcorr.partitions import SPoly, monomial_weight
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


def _unscaled_window(n, windows, mat_factory, correct=True):
    """npoint_window rebuilt by hand from _class_term on the factory's own
    (unscaled) coefficients: same budgets, one matrix cut at the pass's
    floor, each s-polynomial exploded here into (weight, terms) groups with
    its monomials packed into the low bits of a key, classes summed with
    their multiplicities, the monomials unpacked into s-polynomials, and
    the two-point correction added here."""
    floor, exports = budgets(windows)
    ent = mat_factory(floor)
    coeffs = [c for row in ent for it in row for c in it.values()]
    ring = isinstance(coeffs[0], SPoly)
    cap = coeffs[0].cap if ring else None
    monos = [m for c in coeffs if ring for m in c.terms]
    # n terms' exponents add up in a field of `width` bits per s-variable
    width = (n * max((x for m in monos for x in m), default=0)).bit_length()
    nvars = max(map(len, monos), default=0)

    def groups(it):
        by_weight = {}
        for e, c in sorted(it.items()):
            for m, x in c.terms.items() if ring else [((), c)]:
                w = 0 if cap is None else monomial_weight(m)
                packed = sum(a << (j * width) for j, a in enumerate(m))
                by_weight.setdefault(w, []).append((e, packed, x))
        return sorted(by_weight.items())

    mat = [
        [groups({e: c for e, c in it.items() if e >= floor}) for it in row]
        for row in ent
    ]
    sums = {}
    for cyc, weight in cycle_classes(n):
        term = _class_term(cyc, mat, cap or 0, width * nvars, exports, windows, n)
        for key, c in term.items():
            m = tuple((key[n] >> (j * width)) % (1 << width) for j in range(nvars))
            terms = sums.setdefault(key[:n], {})
            terms[m] = terms.get(m, 0) - weight * c
    if ring:
        acc = {}
        for key, terms in sums.items():
            p = SPoly(terms)
            acc[key] = p if cap is None else p.truncate_weight(cap)
    else:
        acc = {key: terms[()] for key, terms in sums.items()}
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


def _kappa_m_matrix(cap):
    """M^kappa over s_1, s_2, ...: the matrix of the kappa wave at weight cap
    `cap`, whose entries carry every s_j with j <= cap."""
    dw = wp.deformed_wave(wp.kappa_times(cap), cap)
    return lambda floor: wp.m_kappa_matrix(dw, floor)


@pytest.mark.parametrize(
    "n, windows",
    [
        (2, [(-7, 1), (-7, 2)]),  # reaches the two-point correction
        (3, [(-6, -1)] * 3),
        (4, [(-4, -1)] * 4),
    ],
)
@pytest.mark.parametrize(
    "factory, fields",
    [
        pytest.param(wk.m_matrix, set(), id="m_matrix"),
        pytest.param(_mixed_m_matrix, set(), id="_mixed_m_matrix"),
        pytest.param(_capped_s1_factory(6), {1}, id="s1_cap6"),
        pytest.param(_kappa_m_matrix(3), {1, 2, 3}, id="kappa_cap3"),
    ],
)
def test_scaled_trace_matches_unscaled(n, windows, factory, fields):
    expected = _unscaled_window(n, windows, factory)
    got = npoint_window(n, windows, factory)
    assert got == expected
    assert expected
    # each s_j that reaches the box has its own key field: s_1 in the s_1
    # ring, and s_2 and s_3 too in the kappa wave's
    used = {j + 1 for c in got.values() if isinstance(c, SPoly)
            for m in c.terms for j, x in enumerate(m) if x}
    assert used == fields
    if fields:
        # every coefficient comes back in the factory's class with its cap,
        # the two-point correction's keys included
        cap = next(iter(factory(-1)[1][0].values())).cap
        assert all(type(c) is SPoly and c.cap == cap for c in got.values())
    if n == 2:
        # the window reaches keys where the correction term matters
        assert _unscaled_window(n, windows, factory, correct=False) != expected


def test_mixed_factory_really_mixes():
    ent = [c for row in _mixed_m_matrix(-9) for d in row for c in d.values()]
    assert any(type(c) is int for c in ent)
    assert any(c.denominator > 1 for c in ent)


def test_spoly_coefficients_stay_spoly():
    # a rational coefficient among s-polynomials is a constant, and an
    # explicit zero coefficient adds no key
    def spoly_m_matrix(floor, mixed):
        mat = [
            [{e: SPoly.const(c) for e, c in ent.items()} for ent in row]
            for row in wk.m_matrix(floor)
        ]
        if mixed:
            mat[1] = wk.m_matrix(floor)[1]
            for ent in mat[1]:
                ent[next(e for e in range(-1, floor, -1) if e not in ent)] = rat(0)
        return mat

    windows = [(-6, -1)] * 3
    plain = npoint_window(3, windows, wk.m_matrix)
    for mixed in (False, True):
        got = npoint_window(3, windows, lambda floor: spoly_m_matrix(floor, mixed))
        assert got.keys() == plain.keys()
        assert all(isinstance(c, SPoly) for c in got.values())
        assert all(got[key] == plain[key] for key in plain)


def test_factory_of_mixed_caps_traces_at_the_smallest():
    # one entry known to weight 12 and the rest to 8: the pass keeps cap 8,
    # and no term above it reaches the int matrix
    def mixed(floor):
        mat = _capped_s1_factory(8)(floor)
        mat[0][1] = _capped_s1_factory(12)(floor)[0][1]
        return mat

    n, windows = 3, [(-6, -1), (-5, -2), (-7, -1)]
    got = npoint_window(n, windows, mixed)
    assert got == npoint_window(n, windows, _capped_s1_factory(8))
    assert all(c.cap == 8 for c in got.values())
    _, zero, _, _, mat = _build_mat(mixed, budgets(windows)[0], n)
    assert zero.cap == 8
    assert max(w for row in mat for it in row for w, _ in it) == 8


def test_factory_mixing_polynomial_rings_is_refused():
    def mixed(floor):
        mat = wk.m_matrix(floor)
        mat[0][1] = {e: DiffPoly.const(c) for e, c in mat[0][1].items()}
        mat[1][0] = {e: SPoly.const(c) for e, c in mat[1][0].items()}
        return mat

    with pytest.raises(TypeError, match="mixes polynomial rings"):
        npoint_window(2, [(-4, -1), (-4, -1)], mixed)


@pytest.mark.parametrize(
    "coefficient",
    [
        pytest.param(lambda c: float(c), id="float"),
        pytest.param(lambda c: SPoly({(1,): float(c)}), id="float_in_spoly"),
    ],
)
def test_factory_with_a_foreign_coefficient_is_refused(coefficient):
    # one entry of the psi matrix read into a coefficient that is neither a
    # rational nor a SparsePoly, or a SparsePoly over one
    def foreign(floor):
        mat = wk.m_matrix(floor)
        mat[0][1] = {e: coefficient(c) for e, c in mat[0][1].items()}
        return mat

    with pytest.raises(TypeError, match="neither a rational nor a SparsePoly"):
        npoint_window(2, [(-4, -1), (-4, -1)], foreign)


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
    scale, zero, width, low, mat = _build_mat(_capped_s1_factory(8), floor, n)
    # the s-polynomials are read into int terms: an entry is a list of
    # (weight, terms) groups by rising weight, each term (y-exponent, packed
    # s_1 exponent, int) with its s_1 exponent the group's weight, none above
    # the cap; zero keeps the class and the cap for the result, and the one
    # s_1 field, all the monomial bits, holds n times the largest exponent
    assert type(scale) is int and scale > 1
    assert type(zero) is SPoly and zero.cap == 8 and not zero
    assert low == width == (n * 8).bit_length()
    groups = [grp for row in mat for it in row for grp in it]
    assert groups
    for row in mat:
        for it in row:
            assert [w for w, _ in it] == sorted({w for w, _ in it})
    for w, terms in groups:
        assert 0 <= w <= 8 and terms == sorted(terms)
        for e, mono, c in terms:
            assert mono == w and type(c) is int and c
    for cyc, _ in cycle_classes(n):
        term = _class_term(cyc, mat, zero.cap, low, exports, windows, n)
        assert term and all(term.values())
        assert all(len(key) == n + 1 and key[n] == -sum(key[:n]) <= 8 for key in term)
