"""Kappa-class layer: deformed waves, mixed correlators, volume polynomials."""
from __future__ import annotations

import pytest

from kdvcorr import wp
from kdvcorr.rationals import factorial, odd_double_factorial, rat
from kdvcorr.wk import correlator


def _pair(p: dict[int, str], q: dict[int, str]) -> tuple[dict, dict]:
    """Parse frozen {exponent: "num/den"} dicts into exact rational pairs."""
    return (
        {e: rat(*map(int, c.split("/"))) if "/" in c else rat(int(c)) for e, c in p.items()},
        {e: rat(*map(int, c.split("/"))) if "/" in c else rat(int(c)) for e, c in q.items()},
    )


def _add(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _shift(x: dict, k: int) -> dict:
    return {e + k: c for e, c in x.items()}


# Closed-form (P, Q) pairs of the first deformed wave components: the A and B
# entries are P(z) + Q(z) * chi where chi is the undeformed logarithmic
# derivative, and each s_lam coefficient is a Laurent polynomial in z.
PAIRS = {
    ("A", (1,)): ({5: "-1/15", 2: "-1/30"}, {5: "1/15"}),
    ("B", (1,)): ({6: "1/15", 0: "-1/10"}, {6: "-1/15", 3: "1/30"}),
    ("A", (2,)): ({7: "-1/105", 4: "-1/210"}, {7: "1/105", 1: "1/168"}),
    ("B", (2,)): ({8: "1/105", 2: "-1/120"}, {8: "-1/105", 5: "1/210"}),
    ("A", (1, 1)): (
        {10: "1/225", 7: "11/1575", 4: "-1/2520"},
        {10: "-1/225", 7: "-1/210", 1: "3/560"},
    ),
    ("B", (1, 1)): (
        {11: "-1/225", 8: "-1/210", 5: "1/150", 2: "-1/240"},
        {11: "1/225", 8: "4/1575", 5: "-13/2520"},
    ),
}

# Large-z expansions of the same components, frozen through z^(-10).
EXPANSIONS = {
    ("A", (1,)): {
        -1: "-1/24",
        -4: "77/576",
        -7: "-17017/27648",
        -10: "7436429/1990656",
    },
    ("B", (1,)): {
        0: "-1/24",
        -3: "-79/576",
        -6: "18095/27648",
        -9: "-7878871/1990656",
    },
    ("A", (2,)): {-2: "1/48", -5: "-13/144", -8: "29887/55296"},
    ("B", (2,)): {
        -1: "-1/48",
        -4: "55/576",
        -7: "-31603/55296",
        -10: "1062347/248832",
    },
    ("A", (1, 1)): {-2: "37/1152", -5: "-28249/138240", -8: "2132845/1327104"},
    ("B", (1, 1)): {
        -1: "-35/1152",
        -4: "29051/138240",
        -7: "-11087791/6635520",
        -10: "1484098759/95551488",
    },
}


def test_wave_flow_pair_base_cases():
    p, q = wp.wave_flow_pair(())
    assert p == {0: 1} and q == {}
    p, q = wp.wave_flow_pair((), with_x=True)
    assert p == {} and q == {1: rat(1)}


def test_wave_flow_pair_order_invariant():
    assert wp.wave_flow_pair((2, 1)) == wp.wave_flow_pair((1, 2))
    assert wp.wave_flow_pair((3, 1, 2)) == wp.wave_flow_pair((1, 2, 3))


def test_wave_flow_pair_first_flow():
    p, q = wp.wave_flow_pair((1,))
    assert p == {2: rat(-1, 30)}
    assert q == {5: rat(1, 15)}


def test_ks_operator_on_basis():
    # S kills constants into -z * chi and sends z * chi back to -z^2.
    p, q = wp.ks_pair({0: rat(1)}, {})
    assert p == {} and q == {1: rat(-1)}
    p, q = wp.ks_pair({}, {1: rat(1)})
    assert p == {2: rat(-1)} and q == {}


def test_ks_relations_for_first_deformation():
    dw = wp.deformed_wave(1)
    a_p, a_q = dw.component((1,), "A")
    b_p, b_q = dw.component((1,), "B")

    # S A + B reproduces a fixed inhomogeneous right-hand side, and so does
    # S B + z^2 A; together these pin both first-order components.
    sp, sq = wp.ks_pair(a_p, a_q)
    want_p, want_q = _pair({0: "-1/6", 3: "-1/3"}, {3: "1/3"})
    assert _add(sp, b_p) == want_p
    assert _add(sq, b_q) == want_q

    sp, sq = wp.ks_pair(b_p, b_q)
    want_p, want_q = _pair({4: "1/3"}, {1: "1/6", 4: "-1/3"})
    assert _add(sp, _shift(a_p, 2)) == want_p
    assert _add(sq, _shift(a_q, 2)) == want_q


def test_deformed_wave_closed_pairs():
    dw = wp.deformed_wave(2)
    for (which, lam), (p_str, q_str) in PAIRS.items():
        want_p, want_q = _pair(p_str, q_str)
        got_p, got_q = dw.component(lam, which)
        assert got_p == want_p, (which, lam)
        assert got_q == want_q, (which, lam)


def test_deformed_wave_component_sorts_partition():
    dw = wp.deformed_wave(3)
    assert dw.component((1, 2), "A") == dw.component((2, 1), "A")


def test_deformed_wave_over_cap_is_empty():
    assert wp.deformed_wave(1).component((2,), "A") == ({}, {})


def test_wave_component_expansions():
    dw = wp.deformed_wave(2)
    for (which, lam), coeffs in EXPANSIONS.items():
        series = wp.wave_component_series(dw, lam, which, -10)
        want, _ = _pair(coeffs, {})
        assert series.support() == sorted(want), (which, lam)
        for e, c in want.items():
            assert series.coefficient(e) == c, (which, lam, e)


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
# s^d / prod_i z_i^(2 k_i + 2) in the genus-g volume generating series.
DISPLAY = {
    (0, 3): {(0, (0, 0, 0)): "1"},
    (1, 1): {(0, (1,)): "1/8", (1, (0,)): "1/24"},
    (1, 2): {
        (0, (0, 2)): "5/8",
        (0, (1, 1)): "3/8",
        (1, (0, 1)): "1/4",
        (2, (0, 0)): "1/16",
    },
    (1, 3): {
        (0, (0, 0, 3)): "35/8",
        (0, (0, 1, 2)): "15/4",
        (0, (1, 1, 1)): "9/4",
        (1, (0, 0, 2)): "5/2",
        (1, (0, 1, 1)): "9/4",
        (2, (0, 0, 1)): "13/16",
        (3, (0, 0, 0)): "7/36",
    },
    (2, 1): {
        (0, (4,)): "105/128",
        (1, (3,)): "203/384",
        (2, (2,)): "139/768",
        (3, (1,)): "169/3840",
        (4, (0,)): "29/3072",
    },
    (2, 2): {
        (0, (0, 5)): "1155/128",
        (0, (1, 4)): "945/128",
        (0, (2, 3)): "1015/128",
        (1, (0, 4)): "231/32",
        (1, (1, 3)): "203/32",
        (1, (2, 2)): "105/16",
        (2, (0, 3)): "399/128",
        (2, (1, 2)): "181/64",
        (3, (0, 2)): "551/576",
        (3, (1, 1)): "7/8",
        (4, (0, 1)): "1085/4608",
        (5, (0, 0)): "787/15360",
    },
}


@pytest.mark.parametrize("g,n", sorted(DISPLAY))
def test_volume_display_tables(g, n):
    vol = wp.wp_volume(g, n)
    want, _ = _pair({}, {})
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


def test_volume_sorted_items():
    vol = wp.wp_volume(1, 3)
    assert vol.sorted_items() == sorted(vol.entries.items())


def test_volume_below_stability_is_empty():
    assert wp.wp_volume(0, 2).entries == {}


def test_volume_workers_and_verify_agree():
    base = wp.wp_volume(1, 2)
    assert wp.wp_volume(1, 2, verify=True).entries == base.entries
    assert wp.wp_volume(1, 2, workers=4).entries == base.entries


def test_floor_override_only_deepens():
    assert wp.mixed_correlator((1, 1), (2,), floor=-40) == rat(139, 11520)
    base = wp.wp_volume(1, 2)
    assert wp.wp_volume(1, 2, floor=-30).entries == base.entries
    # a shallow request must not relax the computed budget
    assert wp.wp_volume(1, 2, floor=-1).entries == base.entries


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
        wp.deformed_wave(-1)


def test_f_kappa_n_builds_the_deformed_wave_once(monkeypatch):
    calls = []
    build = wp.deformed_wave

    def counted(cap):
        calls.append(cap)
        return build(cap)

    monkeypatch.setattr(wp, "deformed_wave", counted)
    box = wp.f_kappa_n(2, [(-3, -1), (-3, -1)], 1, verify=True)
    assert calls == [1]
    monkeypatch.undo()
    assert box == wp.f_kappa_n(2, [(-3, -1), (-3, -1)], 1)
