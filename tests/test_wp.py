"""Kappa-class layer: deformed waves, mixed correlators, volume polynomials."""
from __future__ import annotations

from dataclasses import replace
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import prod

import pytest

from kdvcorr import wk, wp
from kdvcorr.partitions import (
    DegreePoly,
    SPoly,
    l_entry,
    mult_factorial,
    partition_to_monomial,
    partitions_of,
)
from kdvcorr.rationals import factorial, odd_double_factorial, rat
from kdvcorr.series import LaurentSeries, add_into
from kdvcorr.wk import correlator

ZERO = LaurentSeries.zero()


def test_wave_flow_pair_base_cases():
    assert wp.wave_flow_pair(()) == (LaurentSeries.one(), ZERO)
    assert wp.wave_flow_pair((), with_x=True) == (ZERO, LaurentSeries.monomial(1))


def test_wave_flow_pair_order_invariant():
    assert wp.wave_flow_pair((2, 1)) == wp.wave_flow_pair((1, 2))
    assert wp.wave_flow_pair((3, 1, 2)) == wp.wave_flow_pair((1, 2, 3))


def test_wave_flow_pair_first_flow():
    p, q = wp.wave_flow_pair((1,))
    assert p == LaurentSeries.monomial(2, rat(-1, 30))
    assert q == LaurentSeries.monomial(5, rat(1, 15))


@cache
def _flow_pairs(mu) -> tuple:
    """(P, Q) of d_{t_mu} psi |_0 and of d_{t_mu} psi_x |_0, from the flows."""
    return wp.wave_flow_pair(mu) + wp.wave_flow_pair(mu, with_x=True)


# the time shift of each wave under test, by the largest kappa index it keeps:
# every one for the kappa couplings, 1 for the Weil-Petersson slice
SHIFTS = {None: wp.kappa_times, 1: wp._wp_times}


def _flow_chain_wave(cap, top_part):
    """psi and psi_x at the kappa shift, from one KdV flow chain per
    partition mu, unpruned:

        psi = sum_lam ((-1)^{l(lam)} s_lam/m(lam)!) sum_{|mu|=|lam|} L_{lam,mu}
              ((-1)^{l(mu)}/m(mu)!) d_{t_{mu_1+1}} ... d_{t_{mu_l+1}} psi |_{t=0},

    and psi_x the same sum over derivatives of psi_x, over the lam with no
    part above top_part, each coefficient known to weight cap: a route that
    shares no code with the triangular solve."""
    parts = ({0: SPoly.const(1)}, {}, {}, {1: SPoly.const(1)})
    for w in range(1, cap + 1):
        for lam in partitions_of(w, top_part):
            front = rat((-1) ** len(lam), mult_factorial(lam))
            s_mono = SPoly({partition_to_monomial(lam): front})
            for mu in partitions_of(w):
                lcoef = l_entry(lam, mu)
                if lcoef:
                    factor = s_mono * rat((-1) ** len(mu) * lcoef, mult_factorial(mu))
                    for part, flow in zip(parts, _flow_pairs(mu)):
                        for e, v in flow.coefficients.items():
                            add_into(part, e, factor * v)
    return [
        LaurentSeries({e: c.truncate_weight(cap) for e, c in part.items()})
        for part in parts
    ]


def _terms_and_caps(coeffs: dict) -> dict:
    return {e: (c.terms, c.cap) for e, c in coeffs.items()}


@pytest.mark.parametrize("top_part,top_cap", [(None, 4), (1, 5)])
def test_solved_wave_equals_the_flow_chain_wave(top_part, top_cap):
    for cap in range(top_cap + 1):
        dw = wp.deformed_wave(SHIFTS[top_part](cap), cap)
        want = _flow_chain_wave(cap, top_part)
        for got, ref in zip((*dw.psi, *dw.psi_x), want):
            got, ref = (_terms_and_caps(x.coefficients) for x in (got, ref))
            assert got == ref, (cap, top_part)


# the waves of the M^kappa tests: kappa caps 0-4, WP caps 0-6, the shifts t_a + s_1
KAPPA_MATRIX_WAVES = (
    [(wp.kappa_times(cap), cap) for cap in range(5)]
    + [(wp._wp_times(cap), cap) for cap in range(7)]
    + [({a: SPoly.var(1)}, 4) for a in range(4)]
)


def _even_entry(series: LaurentSeries, floor: int) -> dict:
    """{y-exponent: coefficient} of an even series, read from z^{2 floor} up."""
    assert all(k % 2 == 0 for k in series.coefficients)
    return {k // 2: v for k, v in series.coefficients.items() if k >= 2 * floor}


@pytest.mark.parametrize("times,cap", KAPPA_MATRIX_WAVES)
def test_kappa_matrix_from_the_dressed_wave_is_the_same(times, cap):
    # M^kappa by definition, the quadratic form of A = E psi and B = E psi_x
    # in direct (z, -z) products (E(z) E(-z) = 1), equals G M G^-1, terms and
    # caps included
    dw = wp.deformed_wave(times, cap)
    for floor in (-1, -3 * cap - 4):
        a, b = (wp.pair_series(dw.pair(which), 2 * floor - 2) for which in "AB")
        ab, bb = a.substitute_negate(), b.substitute_negate()
        m11 = (a * bb + ab * b) * rat(-1, 2)
        want = [[m11, -(a * ab)], [b * bb, -m11]]
        got = wp.m_kappa_matrix(dw, floor)
        for got_row, want_row in zip(got, want):
            for got_entry, want_entry in zip(got_row, want_row):
                want_entry = _even_entry(want_entry, floor)
                assert _terms_and_caps(got_entry) == _terms_and_caps(want_entry)


@pytest.mark.parametrize("times,cap", KAPPA_MATRIX_WAVES[1:5])
def test_kappa_matrix_refuses_dressed_pairs(times, cap):
    # the pairs of A = E psi and B = E psi_x have P not even and Q not odd,
    # so G M G^-1 does not apply; the entries must not read as M^kappa
    dw = wp.deformed_wave(times, cap)
    dressed = replace(dw, psi=dw.pair("A"), psi_x=dw.pair("B"))
    with pytest.raises(ArithmeticError, match="odd power"):
        wp.m_kappa_matrix(dressed, -1)


def test_one_point_reader_refuses_a_series_above_its_floor(monkeypatch):
    # A and B expanded six orders short leave F_1 unknown at z^-10; it must
    # not read as zero
    dw = wp.deformed_wave(wp._wp_times(4), 4)
    assert wp.f_kappa_1(dw, -10)[-10]
    expand = wp.pair_series
    monkeypatch.setattr(wp, "pair_series", lambda pair, low: expand(pair, low + 6))
    with pytest.raises(ValueError, match="floor"):
        wp.f_kappa_1(dw, -10)


def test_kappa_matrix_reader_refuses_a_series_above_its_floor(monkeypatch):
    # h, f and e read six orders short leave M^kappa unknown at y^-8; it must
    # not read as zero
    dw = wp.deformed_wave(wp._wp_times(4), 4)
    assert wp.m_kappa_matrix(dw, -8)[1][0][-8]
    entries = wk.m_matrix_z
    monkeypatch.setattr(wk, "m_matrix_z", lambda low: entries(low + 6))
    with pytest.raises(ValueError, match="floor"):
        wp.m_kappa_matrix(dw, -8)


def test_ks_operator_on_basis():
    # S kills constants into -z * chi and sends z * chi back to -z^2.
    one, z = LaurentSeries.one(), LaurentSeries.monomial(1)
    assert wp.ks_pair(one, ZERO) == (ZERO, -z)
    assert wp.ks_pair(ZERO, z) == (-z.shift(1), ZERO)


def test_deformed_wave_component_sorts_partition():
    dw = wp.deformed_wave(wp.kappa_times(3), 3)
    assert dw.component((1, 2), "A") == dw.component((2, 1), "A")


@pytest.mark.parametrize("lam", [(0,), (1, 0), (2, -1)])
def test_deformed_wave_component_refuses_parts_below_one(lam):
    # a part below 1 names no s_j; it must not read as the partition without it
    with pytest.raises(ValueError, match="positive"):
        wp.deformed_wave(wp.kappa_times(3), 3).component(lam, "A")


@pytest.mark.parametrize("which", ["a", "b", "", "C", "AB"])
def test_deformed_wave_component_refuses_unknown_wave(which):
    # only "A" and "B" name a wave; a typo must not read as B
    with pytest.raises(ValueError, match="which"):
        wp.deformed_wave(wp.kappa_times(1), 1).component((1,), which)


def test_deformed_wave_over_cap_raises():
    # the wave of cap 1 knows nothing of weight 2; it must not read as zero
    dw = wp.deformed_wave(wp.kappa_times(1), 1)
    for lam in ((2,), (1, 1)):
        with pytest.raises(ValueError):
            dw.component(lam, "A")


def test_deformed_wave_refuses_variables_outside_its_shift():
    # the wave at t_2 -> t_2 + s_3 lives in the polynomials in s_3 alone
    dw = wp.deformed_wave({2: SPoly.var(3)}, 3)
    assert dw.variables == {3}
    assert dw.component((3,), "A") != (ZERO, ZERO)
    for lam in ((1,), (2, 1), (1, 1, 1)):
        with pytest.raises(ValueError, match="variable"):
            dw.component(lam, "B")


@pytest.mark.parametrize("times", [{-1: SPoly.var(1)}, {-3: SPoly.var(2)}])
def test_deformed_wave_refuses_negative_time_index(times):
    with pytest.raises(ValueError, match="time index"):
        wp.deformed_wave(times, 2)


@pytest.mark.parametrize(
    "times",
    [{2: SPoly.const(1)}, {2: SPoly.var(1) + 1}, {1: SPoly.var(1), 3: SPoly.const(-2)}],
)
def test_deformed_wave_refuses_a_constant_shift(times):
    # E = 1 + O(s) is what the weight-by-weight solve rests on; a constant
    # shift would return the undeformed wave instead of failing
    with pytest.raises(ValueError, match="constant"):
        wp.deformed_wave(times, 2)


def _shifted_psi_numbers(a, m, windows, verify=False) -> dict:
    """{(j, b, c): <tau_a^j tau_b tau_c>} for j <= m, read off the two-point
    function at the time shift t_a -> t_a + s_1 as j! [s_1^j]."""
    dw = wp.deformed_wave({a: SPoly.var(1)}, m)
    box = wp.f_kappa_n(2, windows, dw, verify=verify)
    out = {}
    for (e1, e2), poly in box.items():
        b, c = -e1 - 1, -e2 - 1
        for j in range(m + 1):
            value = poly.coefficient(partition_to_monomial((1,) * j)) * factorial(j)
            out[(j, b, c)] = value / (odd_double_factorial(b) * odd_double_factorial(c))
    return out


def _degree_shift_psi_numbers(indices, m, windows) -> dict:
    """{(exps, b, c): <prod_j tau_{indices[j]}^{exps[j]} tau_b tau_c>} for
    total degree sum(exps) <= m, read off the two-point function at the psi
    shift t_{indices[j]} -> t_{indices[j]} + s_{j+1} over DegreePoly, cap m,
    as prod exps[j]! [prod s_{j+1}^{exps[j]}]."""
    shift = {a: DegreePoly.var(j + 1) for j, a in enumerate(indices)}
    box = wp.f_kappa_n(2, windows, wp.deformed_wave(shift, m))
    out = {}
    for (e1, e2), poly in box.items():
        assert poly.cap == m
        b, c = -e1 - 1, -e2 - 1
        norm = odd_double_factorial(b) * odd_double_factorial(c)
        for mono, value in poly.terms.items():
            exps = mono + (0,) * (len(indices) - len(mono))
            out[(exps, b, c)] = value * prod(map(factorial, exps)) / norm
    return out


@pytest.mark.parametrize("a,m", [(0, 4), (1, 4), (2, 4), (3, 3)])
def test_psi_time_shift_matches_dvv_oracle(psi, a, m):
    # the matrix-resolvent formula at t_a = s_1 against DVV, every
    # <tau_a^j tau_b tau_c> with j <= m and b, c <= 6
    got = _shifted_psi_numbers(a, m, [(-7, -1)] * 2)
    nonzero = 0
    for j in range(m + 1):
        for b, c in combinations_with_replacement(range(7), 2):
            want = psi([a] * j + [b, c])
            assert got.get((j, b, c), 0) == want, (a, j, b, c)
            nonzero += bool(want)
    assert nonzero >= 35
    # the degree-graded shift of t_a and t_{a+2} by s_1 and s_2 at degree cap
    # m: every <tau_a^i tau_{a+2}^j tau_b tau_c> with i + j <= m, b, c <= 6
    indices = (a, a + 2)
    got = _degree_shift_psi_numbers(indices, m, [(-7, -1)] * 2)
    assert all(sum(exps) <= m for exps, _, _ in got)
    nonzero = 0
    for i in range(m + 1):
        for j in range(m + 1 - i):
            for b, c in combinations_with_replacement(range(7), 2):
                want = psi([a] * i + [a + 2] * j + [b, c])
                assert got.get(((i, j), b, c), 0) == want, (indices, i, j, b, c)
                nonzero += bool(want)
    assert nonzero >= 90, nonzero


@pytest.mark.parametrize("a,m,b,c", [(2, 6, 4, 4), (2, 8, 3, 3)])
def test_wide_psi_numbers_from_the_time_shift_match_dvv_oracle(psi, a, m, b, c):
    # <tau_2^6 tau_4^2> (width 8) and <tau_2^8 tau_3^2> (width 10), both g = 5,
    # from one width-2 trace under the doubled-budget verify pass
    windows = [(-b - 1, -b - 1), (-c - 1, -c - 1)]
    got = _shifted_psi_numbers(a, m, windows, verify=True)[(m, b, c)]
    want = psi([a] * m + [b, c])
    assert want and got == want


def test_degree_graded_shift_over_three_variables_matches_dvv_oracle(psi):
    # a table-style shift of every index in [2, 4] at degree cap 4: each
    # <tau_2^i tau_3^j tau_4^k tau_b tau_c> with b, c in [2, 4] (width <= 6)
    got = _degree_shift_psi_numbers((2, 3, 4), 4, [(-5, -3)] * 2)
    nonzero = 0
    for degree in range(5):
        for rest in combinations_with_replacement((2, 3, 4), degree):
            exps = tuple(rest.count(a) for a in (2, 3, 4))
            for b, c in combinations_with_replacement((2, 3, 4), 2):
                want = psi([*rest, b, c])
                assert got.get((exps, b, c), 0) == want, (rest, b, c)
                nonzero += bool(want)
    assert nonzero >= 60, nonzero


def test_shift_mixing_two_rings_is_refused():
    # one solve runs over one ring: an SPoly beside a DegreePoly, or a
    # rational, names no ring to grade by
    for times in (
        {2: SPoly.var(1), 3: DegreePoly.var(2)},
        {2: DegreePoly.var(1), 3: 1},
    ):
        with pytest.raises(TypeError, match="one ring"):
            wp.deformed_wave(times, 2)


@pytest.mark.parametrize("cap", [0, 2])
def test_empty_shift_solves_over_spoly(cap):
    # no polynomial names a ring, so the wave is the undeformed one over SPoly
    dw = wp.deformed_wave({}, cap)
    coeffs = [c for s in (*dw.psi, *dw.psi_x, dw.prefactor)
              for c in s.coefficients.values()]
    assert coeffs and all(type(c) is SPoly and c.cap == cap for c in coeffs)
    assert dw.psi == (LaurentSeries({0: SPoly.const(1)}), ZERO)
    assert dw.variables == frozenset()


def test_empty_partition_falls_back_to_plain_correlator():
    assert wp.mixed_correlator((), (0, 0, 0)) == 1
    assert wp.mixed_correlator((), (1,)) == rat(1, 24)
    assert wp.mixed_correlator((), (3, 2)) == correlator((2, 3))


def test_mixed_correlator_dimension_zeros():
    assert wp.mixed_correlator((1,), (1,)) == 0
    assert wp.mixed_correlator((2,), (0,)) == 0
    # on-dimension neighbour for contrast: genus-1 with two punctures
    assert wp.mixed_correlator((2,), (0, 0)) == rat(1, 24)


def test_pure_kappa_one_point():
    # <kappa_{3g-3}> = 1 / (24^g g!) for g >= 2
    for g in range(2, 6):
        assert wp.mixed_correlator((3 * g - 3,), ()) == rat(
            1, 24**g * factorial(g)
        )


def test_kappa_one_tau_closed_form():
    # <kappa_1 tau_{3g-3}> = 3 (12 g^2 - 12 g + 5) / (5!! 24^g g!)
    for g in range(1, 5):
        want = rat(3 * (12 * g * g - 12 * g + 5), 15 * 24**g * factorial(g))
        assert wp.mixed_correlator((1,), (3 * g - 3,)) == want


def test_kappa_two_tau_closed_form():
    # <kappa_2 tau_{3g-4}> = 3 (72 g^3 - 132 g^2 + 95 g - 35) / (7!! 24^g g!)
    for g in range(2, 5):
        poly = 72 * g**3 - 132 * g**2 + 95 * g - 35
        want = rat(3 * poly, 105 * 24**g * factorial(g))
        assert wp.mixed_correlator((2,), (3 * g - 4,)) == want


def test_kappa_three_tau_closed_form():
    # <kappa_3 tau_{3g-5}>
    #   = (1296 g^4 - 3888 g^3 + 4482 g^2 - 2835 g + 945) / (9!! 24^g g!)
    for g in range(2, 5):
        poly = 1296 * g**4 - 3888 * g**3 + 4482 * g**2 - 2835 * g + 945
        want = rat(poly, 945 * 24**g * factorial(g))
        assert wp.mixed_correlator((3,), (3 * g - 5,)) == want


def test_kappa_one_squared_spots():
    assert wp.mixed_correlator((1, 1), (2,)) == rat(139, 11520)
    assert wp.mixed_correlator((1, 1), (5,)) == rat(3781, 2903040)
    assert wp.mixed_correlator((1, 1), (8,)) == rat(48689, 928972800)


def test_kappa_linear_matches_mixed_correlator():
    for j in (1, 2, 3):
        for k in range(0, 7):
            assert wp.kappa_linear(j, k) == wp.mixed_correlator((j,), (k,))


def test_kappa_linear_spots():
    assert wp.kappa_linear(1, 0) == rat(1, 24)
    assert wp.kappa_linear(2, 2) == rat(29, 5760)
    assert wp.kappa_linear(1, 1) == 0  # off the dimension constraint


def test_mixed_genus():
    assert wp.mixed_genus((), (0, 0, 0)) == 0
    assert wp.mixed_genus((1,), (0,)) == 1
    assert wp.mixed_genus((2,), (2,)) == 2
    assert wp.mixed_genus((3,), ()) == 2
    assert wp.mixed_genus((1,), (1,)) is None


# Frozen display coefficients: entry (d, ks) holds the coefficient of
# s^d / prod_i z_i^(2 k_i + 2) in the genus-g volume generating series.  The
# release gate (criterion 06) covers (0,3), (1,2), (1,3) and (2,2).
DISPLAY = {
    (1, 1): {(0, (1,)): "1/8", (1, (0,)): "1/24"},
    (2, 1): {
        (0, (4,)): "105/128",
        (1, (3,)): "203/384",
        (2, (2,)): "139/768",
        (3, (1,)): "169/3840",
        (4, (0,)): "29/3072",
    },
}


@pytest.mark.parametrize("g,n", sorted(DISPLAY))
def test_volume_display_tables(g, n):
    vol = wp.wp_volume(g, n)
    want = {
        key: rat(*map(int, c.split("/"))) if "/" in c else rat(int(c))
        for key, c in DISPLAY[(g, n)].items()
    }
    got = {key: vol.display_coefficient(*key) for key in vol.entries}
    assert got == want


def test_volume_coefficient_normalization():
    vol = wp.wp_volume(1, 2)
    want = {
        (0, (0, 2)): rat(1, 48),
        (0, (1, 1)): rat(1, 24),
        (1, (0, 1)): rat(1, 12),
        (2, (0, 0)): rat(1, 16),
    }
    assert {key: vol.volume_coefficient(*key) for key in vol.entries} == want


def test_display_and_volume_scalings_agree():
    vol = wp.wp_volume(2, 2)
    for (d, ks), entry in vol.entries.items():
        weights = rat(1)
        for k in ks:
            weights *= odd_double_factorial(k)
        assert vol.display_coefficient(d, ks) == entry / factorial(d) * weights
        denom = factorial(d)
        for k in ks:
            denom *= factorial(k)
        assert vol.volume_coefficient(d, ks) == entry / denom


def test_volume_entries_match_repeated_kappa_route():
    # The s^d coefficient equals d! times the correlator with kappa_1^d,
    # i.e. the two pipelines (s-expansion and mixed trace) must agree.
    for g, n in ((1, 1), (1, 2), (2, 1)):
        vol = wp.wp_volume(g, n)
        for (d, ks), entry in vol.entries.items():
            assert entry == wp.mixed_correlator((1,) * d, ks) * factorial(d)


# the oracle and L_0 tests share the costlier volumes
_volume = cache(wp.wp_volume)


def test_grouped_kappa_one_oracle_matches_set_partitions(oracles, psi, kappa1_number):
    # grouping the set partitions by block sizes changes no value
    spots = ((1, (0,)), (2, (0,) * 5), (3, (1,)), (4, (1, 0)), (5, (0, 0, 1)), (6, (1,)))
    for d, ks in spots:
        want = oracles.kappa_number(psi, [1] * d, ks)
        assert want and kappa1_number(d, ks) == want, (d, ks)


@pytest.mark.parametrize(
    "g,n",
    [(3, 1), (2, 3), (3, 2), (4, 1), (5, 1), (3, 3), (1, 4), (4, 2), (2, 4), (1, 5),
     (0, 6), (3, 4), (4, 4), (2, 5), (0, 7), (3, 5)],
)
def test_volume_matches_dvv_oracle(kappa1_number, g, n):
    # <kappa_1^d tau_K> on M_{g,n} by the grouped set-partition pushforward
    # over DVV, a route that shares no code with the deformed wave or with
    # the reduction of route one
    dim = 3 * g - 3 + n
    want = {}
    for ks in combinations_with_replacement(range(dim + 1), n):
        d = dim - sum(ks)
        if d >= 0:
            value = kappa1_number(d, ks)
            if value:
                want[(d, ks)] = value
    assert want
    assert _volume(g, n).entries == want
    if (g, n) == (4, 4):
        assert wp.wp_volume(g, n, verify=True).entries == want


@pytest.mark.parametrize(
    "g,n",
    [(0, 4), (1, 4), (0, 5), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 1), (2, 1),
     (3, 1)],
)
def test_route_one_volume_equals_the_whole_box_trace(g, n):
    # route one, which reads every volume below genus _BOX_GENUS, against
    # route two's box [-dim-1, -1]^n of F_n at the Weil-Petersson slice, read
    # at the sorted keys; at n = 1 the box is the one-point form
    assert g < wp._BOX_GENUS
    dim = 3 * g - 3 + n
    dw = wp.deformed_wave(wp._wp_times(dim), dim)
    if n == 1:
        coeffs = {(e // 2,): c for e, c in wp.f_kappa_1(dw, -2 * dim - 2).items()}
    else:
        coeffs = wp.f_kappa_n(n, [(-dim - 1, -1)] * n, dw)
    want = {}
    for ks in combinations_with_replacement(range(dim + 1), n):
        d = dim - sum(ks)
        sp = coeffs.get(tuple(-k - 1 for k in ks))
        if d >= 0 and sp is not None and (v := sp.coefficient((d,))):
            want[(d, ks)] = v * factorial(d) / prod(map(odd_double_factorial, ks))
    assert want
    assert wp.wp_volume(g, n).entries == want


@pytest.mark.parametrize("g", [1, 2, 3])
def test_l0_ties_one_point_to_two_point_volumes(g):
    # the L_0 Virasoro constraint differentiated by t_m at t*(s_1): for
    # plain intersection numbers (wp_volume entries) and every m,
    #   (2m+1)/2 <kappa_1^d tau_m>/d!
    #     = sum_{k>=1} (2k+1)/2 (-1)^{k-1}/(k-1)!
    #                  <kappa_1^{d-k+1} tau_k tau_m>/(d-k+1)!
    one, two = _volume(g, 1).entries, _volume(g, 2).entries
    for m in range(3 * g - 1):
        d = 3 * g - 2 - m
        lhs = rat(2 * m + 1, 2) * one.get((d, (m,)), 0) / factorial(d)
        rhs = sum(
            rat((2 * k + 1) * (-1) ** (k - 1), 2 * factorial(k - 1))
            * two.get((d - k + 1, tuple(sorted((k, m)))), 0)
            / factorial(d - k + 1)
            for k in range(1, d + 2)
        )
        assert lhs == rhs, (g, m)


def _volume_polynomial(g: int, n: int) -> dict:
    """V_{g,n} with pi^2 a formal P and x_i = L_i^2, as {(d, exps):
    coefficient of P^d prod x_i^exps_i}, from

        V_{g,n}(L) = sum (2 pi^2)^d/d! <kappa_1^d prod tau_{a_i}>
                     prod L_i^{2 a_i}/(2^{a_i} a_i!)."""
    out = {}
    for (d, ks), v in _volume(g, n).entries.items():
        c = v * 2**d / (factorial(d) * prod(2**k * factorial(k) for k in ks))
        for exps in set(permutations(ks)):
            out[(d, exps)] = c
    return out


@pytest.mark.parametrize(
    "g,n",
    sorted({(g, n) for g in range(1, 5) for n in (1, 2, 3)}
           | {(wp._BOX_GENUS, 1), (wp._BOX_GENUS, 2)})
    + [(g, 4) for g in range(1, 5)],
)
def test_do_norbury_string_and_dilaton(g, n):
    # Do-Norbury (arXiv:math/0603406) tie V_{g,n+1} at L_{n+1} = 2 pi i,
    # that is x_{n+1} = -4P, to V_{g,n}:
    #   V_{g,n+1}(L, 2 pi i)          = sum_k int_0^{L_k} L_k V_{g,n}(L) dL_k,
    #   dV_{g,n+1}/dL_{n+1}(L, 2 pi i) = 2 pi i (2g - 2 + n) V_{g,n}(L),
    # where int_0^L L x^m dL = x^{m+1}/(2(m+1)).  The pairs cross every route
    # boundary: n <= 2 reads the box from genus _BOX_GENUS up, and every
    # other volume route one
    low, high = _volume_polynomial(g, n), _volume_polynomial(g, n + 1)
    string, dilaton, integral = {}, {}, {}
    for (d, exps), c in high.items():
        e = exps[-1]
        add_into(string, (d + e, exps[:-1]), c * (-4) ** e)
        if e:
            add_into(dilaton, (d + e - 1, exps[:-1]), 2 * e * c * (-4) ** (e - 1))
    for (d, exps), c in low.items():
        for i, e in enumerate(exps):
            raised = exps[:i] + (e + 1,) + exps[i + 1:]
            add_into(integral, (d, raised), c / (2 * (e + 1)))
    assert low and string == integral
    assert dilaton == {key: (2 * g - 2 + n) * c for key, c in low.items()}


@pytest.mark.parametrize(
    "lam,ks",
    [((3, 1, 1), (0, 0)), ((2, 2, 1), (0, 0)), ((2, 1, 1), (1, 0)),
     ((1, 1, 1), (1, 0, 0, 0))],
)
def test_three_kappa_route_one_matches_dvv_oracle(oracles, psi, lam, ks):
    # route one with tau_0 insertions against the set-partition pushforward
    # over DVV; the oracle counts kappa_lam without the 1/m(lam)! of s_lam
    want = oracles.kappa_number(psi, lam, ks)
    want /= oracles.mult_factorial(lam)
    assert want
    assert wp.mixed_correlator(lam, ks) == want
    assert wp.mixed_correlator(lam[::-1], ks[::-1], verify=True) == want


def test_kappa_routes_agree_at_weights_three_and_four():
    # route one (psi correlators weighed by L) against route two (the trace
    # over the wave at the kappa shift), where several parts of lam are >= 2
    dw = wp.deformed_wave(wp.kappa_times(4), 4)
    box = wp.f_kappa_n(2, [(-5, -1)] * 2, dw)
    lams = partitions_of(3) + partitions_of(4)
    assert (2, 2) in lams and (2, 1, 1) in lams
    nonzero = 0
    for key, spoly in box.items():
        ks = tuple(-e - 1 for e in key)
        weight = odd_double_factorial(ks[0]) * odd_double_factorial(ks[1])
        for lam in lams:
            got = spoly.coefficient(partition_to_monomial(lam))
            assert got == wp.mixed_correlator(lam, ks) * weight, (key, lam)
            nonzero += bool(got)
    assert len(box) * len(lams) == 200 and nonzero == 69


@pytest.mark.parametrize(
    "lam,ks,verify", [((3, 1, 1), (0, 0), True), ((2, 2, 1), (0, 0), False)]
)
def test_route_one_traces_each_reduced_multiset_once(monkeypatch, lam, ks, verify):
    # the mu terms share one reduction, so two terms that reduce to the same
    # all->=2 multiset trace its window once
    calls = []
    trace = wk.npoint_window

    def recording(n, windows, build, **kw):
        calls.append(tuple(windows))
        return trace(n, windows, build, **kw)

    monkeypatch.setattr(wk, "npoint_window", recording)
    wp.mixed_correlator(lam, ks, verify=verify)
    assert len(calls) == 2 and len(set(calls)) == 2, calls


def test_volume_sorted_items():
    vol = wp.wp_volume(1, 3)
    assert vol.sorted_items() == sorted(vol.entries.items())


def test_volume_below_stability_is_empty():
    assert wp.wp_volume(0, 2).entries == {}


def test_volume_workers_and_verify_agree():
    base = wp.wp_volume(1, 2)
    assert wp.wp_volume(1, 2, verify=True).entries == base.entries


def test_validation_errors():
    with pytest.raises(ValueError):
        wp.mixed_correlator((0,), (0,))
    with pytest.raises(ValueError):
        wp.mixed_correlator((1,), (-1,))
    with pytest.raises(ValueError):
        wp.wp_volume(-1, 1)
    with pytest.raises(ValueError):
        wp.wp_volume(1, 0)
    with pytest.raises(ValueError):
        wp.kappa_linear(0, 1)
    with pytest.raises(ValueError):
        wp.kappa_linear(0, 0)  # off dimension too, but the index is checked first
    with pytest.raises(ValueError):
        wp.deformed_wave({}, -1)


def test_wp_volume_builds_one_wave_and_reads_m_once_per_matrix(monkeypatch):
    # an n = 2 box volume: the build and the verify build of M^kappa read
    # one wave, and each reads the entries h, f, e of M once
    calls = {"deformed_wave": 0, "m_matrix_z": 0, "m_kappa_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        module = wk if name == "m_matrix_z" else wp
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    vol = wp.wp_volume(wp._BOX_GENUS, 2, verify=True)
    assert calls == {"deformed_wave": 1, "m_matrix_z": 2, "m_kappa_matrix": 2}
    monkeypatch.undo()
    assert vol.entries == _volume(wp._BOX_GENUS, 2).entries


def test_wp_volume_route_is_picked_by_width(monkeypatch):
    # below genus _BOX_GENUS every volume reads route one, and a genus-2
    # leaf is too narrow for a shifted trace, so none builds a wave; from
    # _BOX_GENUS up n <= 2 builds one wave at the Weil-Petersson slice and
    # reads its box
    box = (wp._BOX_GENUS, 1)
    want = {gn: _volume(*gn).entries for gn in ((1, 3), (2, 1), (2, 2), box)}

    def refused(*args, **kwargs):
        raise AssertionError("a wave on route one below width 6")

    for module in (wp, wk):
        monkeypatch.setattr(module, "deformed_wave", refused)
    monkeypatch.setattr(wp, "f_kappa_n", refused)
    for g, n in ((1, 3), (2, 1), (2, 2)):
        assert wp.wp_volume(g, n).entries == want[(g, n)]
    monkeypatch.undo()
    waves = []
    build = wp.deformed_wave

    def recording(times, cap):
        waves.append((times, cap))
        return build(times, cap)

    monkeypatch.setattr(wp, "deformed_wave", recording)
    monkeypatch.setattr(wk, "deformed_wave", recording)
    dim = 3 * box[0] - 2
    assert wp.wp_volume(*box).entries == want[box]
    assert waves == [(wp._wp_times(dim), dim)]


def test_route_one_builds_a_wave_per_shift_set_not_per_leaf(monkeypatch):
    # a genus-5 volume reads its leaves of width >= 6 from shifted traces;
    # the leaves that shift the same set S of indices share a wave: the first
    # builds it at its own degree, and a wider one rebuilds it once, at the
    # largest degree a genus-5 leaf at S can need
    leaves, waves = [], []
    leaf, build = wk.shifted_leaf, wk.deformed_wave

    def recording_leaf(verify):
        read = leaf(verify)

        def recorded(ks):
            leaves.append(ks)
            return read(ks)

        return recorded

    def recording_wave(times, cap):
        waves.append((tuple(times), cap))
        return build(times, cap)

    monkeypatch.setattr(wk, "shifted_leaf", recording_leaf)
    monkeypatch.setattr(wk, "deformed_wave", recording_wave)
    assert wp.wp_volume(5, 3).entries
    degrees: dict = {}
    for ks in leaves:
        degrees.setdefault(tuple(sorted(set(ks[:-2]))), []).append(len(ks) - 2)
    caps: dict = {}
    for shift, cap in waves:
        caps.setdefault(shift, []).append(cap)
    assert caps.keys() == degrees.keys()
    for shift, got in caps.items():
        first, *rest = degrees[shift]
        top = wk._shift_degree((2,) * 12, shift)  # weight 3g - 3 at genus 5
        assert got == ([first, top] if max(rest, default=0) > first else [first])
        assert max(rest, default=0) <= top
    assert len(leaves) > 4 * len(degrees) and len(waves) < 2 * len(degrees)


def _s1_slice(coeffs: dict) -> dict:
    """{key: (terms, cap)} of the s_1^d part of each s-polynomial."""
    out = {}
    for key, c in coeffs.items():
        terms = {m: v for m, v in c.terms.items() if len(m) <= 1}
        if terms:
            out[key] = (terms, c.cap)
    return out


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_s1_wave_is_the_general_wave_at_s1(cap):
    # the Weil-Petersson shift is the kappa shift at s_j = 0 for j >= 2, a
    # ring homomorphism, so its wave is the restriction of the general wave,
    # caps included
    general = wp.deformed_wave(wp.kappa_times(cap), cap)
    s1 = wp.deformed_wave(wp._wp_times(cap), cap)
    for got, want in zip((*s1.psi, *s1.psi_x), (*general.psi, *general.psi_x)):
        assert all(len(m) <= 1 for c in got.coefficients.values() for m in c.terms)
        assert _s1_slice(got.coefficients) == _s1_slice(want.coefficients)
    floor = -cap - 2
    got_rows = wp.m_kappa_matrix(s1, floor)
    for got_row, want_row in zip(got_rows, wp.m_kappa_matrix(general, floor)):
        for got, want in zip(got_row, want_row):
            assert got and _s1_slice(got) == _s1_slice(want)
    # the s_1 wave knows nothing of s_2: it must not read as zero
    with pytest.raises(ValueError):
        s1.component((2,), "A")


def test_deformed_wave_and_kappa_matrix_carry_the_cap():
    # the trace engine sees the cap only through the polynomials it receives
    dw = wp.deformed_wave(wp.kappa_times(3), 3)
    series = (*dw.psi, *dw.psi_x, *dw.pair("A"), *dw.pair("B"), dw.prefactor)
    coeffs = [c for s in series for c in s.coefficients.values()]
    matrix = wp.m_kappa_matrix(dw, -4)
    coeffs += [c for row in matrix for ent in row for c in ent.values()]
    coeffs += list(wp.f_kappa_1(dw, -8).values())
    assert coeffs and all(c.cap == 3 for c in coeffs)
