"""Differential polynomials in the jet variables and series built over them."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcorr.diffpoly import (
    DiffPoly,
    _chi_y,
    _map_dx,
    _omega_x,
    flow_derivative,
    formal_antiderivative,
    mat2_mul,
    omega,
    resolvent,
    riccati_chi,
    theta_matrix,
    two_point_general,
)
from kdvcorr.npoint import npoint_window
from kdvcorr.rationals import odd_double_factorial, rat
from kdvcorr.series import LaurentSeries

U = DiffPoly.jet(0)
UX = DiffPoly.jet(1)
UXX = DiffPoly.jet(2)


def test_jet_and_const_construction():
    assert DiffPoly.const(0) == DiffPoly()
    assert not DiffPoly()
    assert DiffPoly.const(3) + DiffPoly.const(-3) == DiffPoly()
    assert DiffPoly({(0, 2): rat(1, 2)}).coefficient((0, 2)) == rat(1, 2)


def test_ring_arithmetic():
    f = U * U + rat(1, 3) * UXX
    assert f.coefficient((2,)) == rat(1)
    assert f.coefficient((0, 0, 1)) == rat(1, 3)
    assert (f - f) == DiffPoly()
    assert 2 * U == U + U
    assert (U + 1) * (U - 1) == U * U - 1


def test_d_x_is_a_derivation():
    f = U * U
    g = UX * UXX
    lhs = (f * g).d_x()
    rhs = f.d_x() * g + f * g.d_x()
    assert lhs == rhs
    assert U.d_x() == UX
    assert (U * U).d_x() == 2 * U * UX


def test_partial_derivatives():
    f = U * U * UX
    assert f.partial(0) == 2 * U * UX
    assert f.partial(1) == U * U
    assert f.partial(5) == DiffPoly()


def test_evaluate_at_jets_pads_with_zero():
    f = U + UX + DiffPoly.jet(7)
    assert f.evaluate_at_jets([rat(2), rat(3)]) == rat(5)
    assert (U * U).evaluate_at_jets([rat(0), rat(1)]) == rat(0)


def test_formal_antiderivative_inverts_d_x():
    f = U * U * UX + rat(1, 4) * DiffPoly.jet(3)
    assert formal_antiderivative(f.d_x()) == f
    with pytest.raises(ValueError):
        formal_antiderivative(U)  # u is not a total x-derivative


def test_formal_antiderivative_divides_ints_exactly():
    # int coefficients stay ints where the division is exact ...
    g = formal_antiderivative(2 * U * UX)
    assert g == U * U
    assert type(g.coefficient((2,))) is int
    # ... and become Fractions, never floored, where it is not
    half = formal_antiderivative(U * UX)
    assert half == rat(1, 2) * U * U
    assert half.coefficient((2,)) == rat(1, 2)
    for f in (U, UX * UX, 3 * U * U):
        with pytest.raises(ValueError):
            formal_antiderivative(f)


# jet polynomials in u ... u_5 with no constant term, int or Fraction
# coefficients
_int_coeffs = st.integers(-6, 6)
_frac_coeffs = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))


def _no_constant(coeffs):
    return st.dictionaries(
        st.lists(st.integers(0, 2), max_size=6).map(tuple), coeffs, max_size=6
    ).map(lambda t: DiffPoly({m: c for m, c in t.items() if any(m)}))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_no_constant(_int_coeffs), _no_constant(_frac_coeffs)))
def test_formal_antiderivative_inverts_d_x_on_random_polys(g):
    f = g.d_x()
    back = formal_antiderivative(f)
    assert back == g
    if all(type(c) is int for c in g.terms.values()):
        assert all(type(c) is int for c in back.terms.values())


@settings(max_examples=60, deadline=None)
@given(
    _no_constant(_frac_coeffs),
    st.integers(0, 4),
    st.one_of(_int_coeffs, _frac_coeffs).filter(bool),
)
def test_formal_antiderivative_rejects_u_powers_and_constants(g, m, c):
    # every term of a derivative has a jet u_j with j >= 1, so c u^m
    # (m >= 1) or a constant c (m = 0) added to one is never exact
    with pytest.raises(ValueError):
        formal_antiderivative(g.d_x() + DiffPoly({(m,): c}))


def test_omega_first_densities():
    assert omega(-1) == DiffPoly.const(1)
    assert omega(0) == U
    assert omega(1) == rat(1, 2) * U * U + rat(1, 12) * UXX
    om2 = omega(2)
    assert om2.coefficient((3,)) == rat(1, 6)
    assert om2.coefficient((0, 2)) == rat(1, 24)
    assert om2.evaluate_at_jets([rat(0), rat(1)]) == rat(1, 24)


def test_omega_recursion_residual():
    # (2p+1) d_x Omega_p = 2 u d_x Omega_{p-1} + u_x Omega_{p-1}
    #                      + d_x^3 Omega_{p-1} / 4
    for p in range(1, 13):
        prev = omega(p - 1)
        lhs = (2 * p + 1) * omega(p).d_x()
        rhs = 2 * U * prev.d_x() + UX * prev + rat(1, 4) * prev.d_x().d_x().d_x()
        assert lhs == rhs, p


def test_scaled_recursions_stay_integral():
    # X_p = 4^p (2p+1)!! Omega_p and Y_k = 2^k chi_k have int coefficients;
    # a Fraction here would keep the values but lose the integer arithmetic
    for p in range(13):
        assert all(type(c) is int for c in _omega_x(p).terms.values()), p
    for k in range(1, 21):
        assert all(type(c) is int for c in _chi_y(k).terms.values()), k
    # d_x X_p = (8 u d_x + 4 u_x + d_x^3) X_{p-1}, over the integers
    for p in range(1, 13):
        prev = _omega_x(p - 1)
        rhs = 8 * U * prev.d_x() + 4 * UX * prev + prev.d_x().d_x().d_x()
        assert _omega_x(p).d_x() == rhs, p


def test_chi_y_equals_the_unmirrored_riccati_sum():
    for k in range(2, 23):
        acc = _chi_y(k - 1).d_x()
        for a in range(1, k - 1):
            acc = acc + _chi_y(a) * _chi_y(k - 1 - a)
        assert _chi_y(k) == -acc, k


def test_resolvent_times_chi_chi_negated_is_theta_21():
    # R(z) chi(z) chi(-z) = Theta_21 = R_xx/2 - (z^2 - 2u) R, floors included
    for K in range(9):
        chi = riccati_chi(2 * K + 2)
        lhs = resolvent(K) * (chi * chi.substitute_negate())
        th21 = theta_matrix(K)[1][0]
        assert lhs.low == th21.low, K
        assert lhs.coefficients == th21.coefficients, K


def test_flow_derivative_is_a_derivation():
    f = U * U
    g = UX
    for k in range(3):
        lhs = flow_derivative(f * g, k)
        rhs = flow_derivative(f, k) * g + f * flow_derivative(g, k)
        assert lhs == rhs, k
    # t_0 flow is x-translation
    assert flow_derivative(U * UX, 0) == (U * UX).d_x()
    # on a jet variable the flow is d_{t_k} u_j = d_x^{j+1} Omega_k
    for k in range(4):
        dx = omega(k)
        for j in range(5):
            dx = dx.d_x()
            assert flow_derivative(DiffPoly.jet(j), k) == dx, (k, j)


def test_negative_flow_index_is_a_value_error():
    # there is no t_{-1} flow, though omega(-1) = 1 exists
    for k in (-1, -2):
        with pytest.raises(ValueError, match="flow index"):
            flow_derivative(U * U, k)


def test_flow_derivatives_commute():
    f = U
    for j, k in ((1, 2), (1, 3), (2, 3)):
        a = flow_derivative(flow_derivative(f, j), k)
        b = flow_derivative(flow_derivative(f, k), j)
        assert a == b, (j, k)


def test_theta_matrix_squares_to_z2():
    K = 8
    th = theta_matrix(K)
    sq = mat2_mul(th, th)
    z2 = LaurentSeries.monomial(2, DiffPoly.const(1))
    assert sq[0][0] == z2.truncate(sq[0][0].low)
    assert sq[1][1] == z2.truncate(sq[1][1].low)
    assert sq[0][1].is_zero_to_truncation()
    assert sq[1][0].is_zero_to_truncation()
    assert (th[0][0] + th[1][1]).is_zero_to_truncation()  # traceless


def test_theta_matrix_matches_its_definition():
    # Theta = [[-R_x/2, -R], [R_xx/2 - (z^2 - 2u) R, R_x/2]], floors included
    z2 = LaurentSeries.monomial(2, DiffPoly.const(1))
    half = rat(1, 2)
    for K in range(11):
        r = resolvent(K)
        rx = _map_dx(r)
        want = [
            [-(rx * half), -r],
            [_map_dx(rx) * half - z2 * r + (2 * U) * r, rx * half],
        ]
        got = theta_matrix(K)
        for i in range(2):
            for j in range(2):
                assert got[i][j].low == want[i][j].low, (K, i, j)
                assert got[i][j].coefficients == want[i][j].coefficients, (K, i, j)


def test_negative_orders_and_indices_are_value_errors():
    for build in (resolvent, riccati_chi, theta_matrix):
        with pytest.raises(ValueError, match="truncation order K"):
            build(-1)
    for p, q in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="negative index"):
            two_point_general(p, q, 4)


def test_two_point_general_lowest_case():
    # <<tau_0 tau_0>> = u
    assert two_point_general(0, 0, 4) == U


def test_two_point_general_symmetry():
    for p, q in ((0, 1), (1, 2), (0, 3)):
        assert two_point_general(p, q, p + q + 3) == two_point_general(
            q, p, p + q + 3
        )


def test_two_point_general_with_tau0_is_omega():
    # <<tau_0 tau_q>> = Omega_q, monomial by monomial
    for q in range(7):
        assert two_point_general(0, q, q + 3) == omega(q), q


def test_two_point_general_x_derivative_is_a_flow():
    # d_x <<tau_p tau_q>> = d/dt_p Omega_q, monomial by monomial
    for p in range(7):
        for q in range(7 - p):
            lhs = two_point_general(p, q, p + q + 3).d_x()
            assert lhs == flow_derivative(omega(q), p), (p, q)


def test_two_point_general_needs_only_k_at_least_p_plus_q():
    for p in range(6):
        for q in range(6):
            want = two_point_general(p, q, p + q + 3)
            for K in (p + q, p + q + 1, p + q + 2):
                assert two_point_general(p, q, K) == want, (p, q, K)
            if p + q:
                with pytest.raises(ValueError, match="below truncation floor"):
                    two_point_general(p, q, p + q - 1)
    with pytest.raises(ValueError, match="truncation order K"):
        two_point_general(0, 0, -1)


def test_trace_engine_over_the_jet_ring_gives_two_point_general():
    # the generic trace engine fed Theta in y = z^2 reaches the same F_2
    def theta_y(floor):
        th = theta_matrix(max(0, -floor))
        return [
            [{e // 2: c for e, c in ent.coefficients.items()} for ent in row]
            for row in th
        ]

    for p in range(6):
        for q in range(6 - p):
            box = npoint_window(2, [(-p - 1, -p - 1), (-q - 1, -q - 1)], theta_y)
            got = box[(-p - 1, -q - 1)]
            weight = rat(1, odd_double_factorial(p) * odd_double_factorial(q))
            assert got * weight == two_point_general(p, q, p + q + 3), (p, q)


def test_two_point_general_at_wk_jets_matches_correlators():
    from kdvcorr import wk

    jets = [rat(0), rat(1)]
    for p, q in ((2, 3), (3, 3), (2, 6)):
        val = two_point_general(p, q, p + q + 3).evaluate_at_jets(jets)
        assert val == wk.correlator((p, q)), (p, q)


def test_mat2_helpers():
    one = LaurentSeries.one()
    zero = LaurentSeries.zero()
    a = [[one, zero], [zero, one]]
    sq = mat2_mul(a, a)
    assert sq[0][0] == one and sq[1][1] == one


def _random_diffpoly(rng) -> DiffPoly:
    total = DiffPoly.const(rat(rng.randint(-3, 3)))
    for _ in range(rng.randint(0, 4)):
        term = DiffPoly.const(rat(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3)):
            term = term * DiffPoly.jet(rng.randint(0, 3))
        total = total + term
    return total


def test_random_derivation_properties():
    import random

    rng = random.Random(20260823)
    for trial in range(20):
        p, q = _random_diffpoly(rng), _random_diffpoly(rng)
        assert (p * q).d_x() == p.d_x() * q + p * q.d_x(), trial
        for k in (1, 2):
            lhs = flow_derivative(p * q, k)
            rhs = flow_derivative(p, k) * q + p * flow_derivative(q, k)
            assert lhs == rhs, (trial, k)
        first = flow_derivative(flow_derivative(p, 1), 2)
        second = flow_derivative(flow_derivative(p, 2), 1)
        assert first == second, trial
        jets = [rat(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
        assert (p * q).evaluate_at_jets(jets) == p.evaluate_at_jets(
            jets
        ) * q.evaluate_at_jets(jets), trial
        no_const = p - DiffPoly.const(p.coefficient(()))
        assert formal_antiderivative(no_const.d_x()) == no_const, trial
