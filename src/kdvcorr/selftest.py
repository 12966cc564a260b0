"""Internal consistency checks wired into the command line as `selftest`.

Each check re-derives one identity that the library's correctness rests on,
using at least two independent code paths, and compares exactly.  The
optional fault injection flips one coefficient before comparing, proving the
harness actually fails when a value is wrong.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import wk, wp
from .npoint import TruncationInstability, npoint_window
from .diffpoly import (
    DiffPoly,
    _map_dx,
    mat2_mul,
    resolvent,
    riccati_chi,
    theta_matrix,
)
from .partitions import (
    bell_number,
    l_entry,
    mult_factorial,
    partitions_of,
)
from .rationals import rat
from .series import LaurentSeries


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check_matrix_involution(depth: int) -> None:
    """M(z)^2 = z^2 I on every retained order."""
    m = wk.m_matrix_z(-depth)
    sq = mat2_mul(m, m)
    ident = LaurentSeries.monomial(2, rat(1))
    zero = LaurentSeries.zero()
    for i in range(2):
        for j in range(2):
            want = ident if i == j else zero
            if sq[i][j] != want:
                raise AssertionError(f"(M^2)[{i}][{j}] != z^2 delta: {sq[i][j]}")


def _check_wronskian(depth: int) -> None:
    """c(z) q(-z) + c(-z) q(z) = 2, from the series c and q themselves."""
    c, q = wk.fz_c(-depth), wk.fz_q(-depth)
    total = c * q.substitute_negate() + c.substitute_negate() * q
    if total != LaurentSeries.monomial(0, rat(2)):
        raise AssertionError(f"c qbar + cbar q = {total}")


def _check_closed_products(depth: int) -> None:
    """The products of c and q read off M's entries vs direct multiplication."""
    low = -depth
    c, q = wk.fz_c(low), wk.fz_q(low)
    cb, qb = c.substitute_negate(), q.substitute_negate()
    direct = {"cc": c * cb, "cq": c * qb, "qc": q * cb, "qq": q * qb}
    for (name, want), read in zip(direct.items(), wk.wave_products(low)):
        if read != want:
            raise AssertionError(f"M gives {name} unlike the direct product")


def _check_riccati(depth: int) -> None:
    """chi_x + chi^2 + 2u - z^2 = 0 termwise in differential polynomials."""
    chi = riccati_chi(depth)
    u = DiffPoly.jet(0)
    resid = _map_dx(chi) + chi * chi + LaurentSeries({0: 2 * u, 2: DiffPoly.const(-1)})
    if not all(not c for e, c in resid.coefficients.items() if e >= resid.low):
        raise AssertionError(f"Riccati residual {resid}")


def _check_chi_from_resolvent(depth: int) -> None:
    """chi = (log R)_x / 2 + z / R, checked as chi R = R_x / 2 + z."""
    k = depth // 2 + 1
    r = resolvent(k)
    r_x = _map_dx(r)
    chi = riccati_chi(2 * k + 4)
    lhs = chi * r
    rhs = r_x * rat(1, 2) + LaurentSeries.monomial(1, DiffPoly.const(1))
    low = max(lhs.low, r_x.low, -depth)
    for e in range(low, 2):
        if lhs.coefficient(e) != rhs.coefficient(e):
            raise AssertionError(f"chi R mismatch at order {e}")


def _check_theta_at_origin(depth: int) -> None:
    """Theta evaluated on the topological jet values equals M."""
    k = depth // 2 + 1
    theta = theta_matrix(k)
    m = wk.m_matrix_z(-depth)
    for i in range(2):
        for j in range(2):
            ent = theta[i][j]
            got = LaurentSeries(
                {
                    e: c.evaluate_at_jets(wp.WK_JETS)
                    for e, c in ent.coefficients.items()
                },
                ent.low,
            )
            low = max(got.low, m[i][j].low)
            for e in range(low, 5):
                if got.coefficient(e) != m[i][j].coefficient(e):
                    raise AssertionError(f"Theta[{i}][{j}] != M[{i}][{j}] at {e}")


def _check_one_point_forms(depth: int) -> None:
    """One-point series from genus coefficients vs the quadratic wave form."""
    low = -depth
    direct = wk.one_point_series(low)
    cc, _, _, qq = wk.wave_products(low - 2)
    quad = (cc + qq) * rat(-1, 2)
    alt = (LaurentSeries.monomial(2, rat(1)) + quad.shift(2)).truncate(low)
    if direct != alt:
        raise AssertionError("one-point series disagrees with wave-pair form")


def _check_bell_rows(depth: int) -> None:
    """sum_mu L_{(1^n) mu} / m(mu)! = Bell(n) for weights n <= 8."""
    for n in range(1, 9):
        lam = (1,) * n
        total = sum(
            rat(l_entry(lam, mu), mult_factorial(mu)) for mu in partitions_of(n)
        )
        if total != bell_number(n):
            raise AssertionError(f"Bell row {n}: {total} != {bell_number(n)}")


def _check_flow_commutation(depth: int) -> None:
    """Applying commuting flows in either order gives the same wave pair."""
    if wp.wave_flow_pair((2, 1)) != wp.wave_flow_pair((1, 2)):
        raise AssertionError("flow order changed the wave derivative")


def _check_deformed_wronskian(depth: int) -> None:
    """A(z;s) B(-z;s) - A(-z;s) B(z;s) = -2z with s-polynomial coefficients."""
    cap = min(3, depth)
    dw = wp.deformed_wave(wp.kappa_times(cap), cap)
    low = -depth
    a, b = (wp.pair_series(dw.pair(which), low) for which in "AB")
    w = a * b.substitute_negate() - a.substitute_negate() * b
    for e, c in w.coefficients.items():
        want_zero = c + (2 if e == 1 else 0)
        if want_zero:
            raise AssertionError(f"deformed Wronskian term at z^{e}: {c}")


def _check_deformed_negative_powers(depth: int) -> None:
    """A^lambda for lambda != () expands in strictly negative powers."""
    dw = wp.deformed_wave(wp.kappa_times(2), 2)
    for lam in ((1,), (2,), (1, 1)):
        series = wp.pair_series(dw.component(lam), -depth)
        bad = [e for e in series.coefficients if e >= 0]
        if bad:
            raise AssertionError(f"A^{lam} has non-negative powers {bad}")


def _check_deformed_ks_relations(depth: int) -> None:
    """The lambda=(1) pair satisfies the inhomogeneous operator relations."""
    dw = wp.deformed_wave(wp.kappa_times(1), 1)
    ap, aq = dw.component((1,), "A")
    bp, bq = dw.component((1,), "B")
    sp, sq = wp.ks_pair(ap, aq)
    want = LaurentSeries({0: rat(-1, 6), 3: rat(-1, 3)}), LaurentSeries({3: rat(1, 3)})
    if (sp + bp, sq + bq) != want:
        raise AssertionError("first deformed operator relation fails")
    sp, sq = wp.ks_pair(bp, bq)
    want = LaurentSeries({4: rat(1, 3)}), LaurentSeries({1: rat(1, 6), 4: rat(-1, 3)})
    if (sp + ap.shift(2), sq + aq.shift(2)) != want:
        raise AssertionError("second deformed operator relation fails")


def _check_correlator_spots(depth: int) -> None:
    """Frozen correlators: one-point, string, dilaton, traced, kappa route one."""
    spots = [
        ((0, 0, 0), rat(1)),
        ((1,), rat(1, 24)),
        ((0, 2), rat(1, 24)),
        ((1, 1), rat(1, 24)),
        ((2, 2, 2), rat(7, 240)),
        ((4, 4), rat(607, 1451520)),
    ]
    for ks, want in spots:
        got = wk.correlator(ks)
        if got != want:
            raise AssertionError(f"<tau_{ks}> = {got}, expected {want}")
    mixed = [
        (((1,), (0,)), rat(1, 24)),
        (((3,), ()), rat(1, 1152)),
        (((1, 1), (2,)), rat(139, 11520)),
    ]
    for (lam, ks), want in mixed:
        got = wp.mixed_correlator(lam, ks)
        if got != want:
            raise AssertionError(f"<kappa_{lam} tau_{ks}> = {got}, expected {want}")


def _check_kappa_trace_route(depth: int) -> None:
    """Closed single-kappa trace formula vs the residue extraction route."""
    for j, k in ((1, 0), (1, 3), (2, 2), (3, 1)):
        a = wp.kappa_linear(j, k)
        b = wp.mixed_correlator((j,), (k,))
        if a != b:
            raise AssertionError(f"kappa_{j} tau_{k}: trace {a} vs residue {b}")


def _check_truncation_guard(depth: int) -> None:
    """The widened-budget recomputation must flag a floor-sensitive matrix."""

    def unstable(floor):
        # nonsense data whose value depends on the requested floor, which is
        # exactly what the doubling check exists to catch
        bad = rat(floor)
        return [[{-2: bad}, {0: rat(1)}], [{0: rat(1)}, {-2: -bad}]]

    try:
        npoint_window(2, [(-4, -2), (-4, -2)], unstable, verify=True)
    except TruncationInstability:
        return
    raise AssertionError("floor-sensitive matrix passed the doubling check")


_CHECKS = [
    ("matrix-involution", _check_matrix_involution),
    ("wave-wronskian", _check_wronskian),
    ("closed-products", _check_closed_products),
    ("riccati-residual", _check_riccati),
    ("chi-from-resolvent", _check_chi_from_resolvent),
    ("theta-at-origin", _check_theta_at_origin),
    ("one-point-forms", _check_one_point_forms),
    ("bell-rows", _check_bell_rows),
    ("flow-commutation", _check_flow_commutation),
    ("deformed-wronskian", _check_deformed_wronskian),
    ("deformed-negative-powers", _check_deformed_negative_powers),
    ("deformed-ks-relations", _check_deformed_ks_relations),
    ("correlator-spots", _check_correlator_spots),
    ("kappa-trace-route", _check_kappa_trace_route),
    ("truncation-guard", _check_truncation_guard),
]


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def _shallow_truncation_result() -> CheckResult:
    """Recompute a window from matrices clipped to half the requested depth
    and report how the doubling check reacts; always a failing entry, used to
    demonstrate the guard from the command line."""

    def clipped(floor):
        return wk.m_matrix(-max(2, (-floor) // 2))

    try:
        npoint_window(2, [(-8, -1), (-8, -1)], clipped, verify=True)
    except TruncationInstability as exc:
        return CheckResult("shallow-truncation", False, f"flagged: {exc}")
    return CheckResult(
        "shallow-truncation",
        False,
        "half-depth matrices escaped the doubling check",
    )


def run_selftest(
    depth: int = 12,
    inject_fault: bool = False,
    shallow_truncation: bool = False,
) -> list[CheckResult]:
    """Run all checks; the two flags corrupt a comparison or the truncation
    budget on purpose, so that the failure reporting itself is exercised."""
    if depth < 6:
        raise ValueError("selftest depth must be at least 6")
    results = []
    for name, fn in _CHECKS:
        try:
            fn(depth)
            if inject_fault and name == "correlator-spots":
                raise AssertionError(
                    "injected fault: <tau_1> compared against 1/23"
                )
            results.append(CheckResult(name, True))
        except Exception as exc:  # report, never abort the sweep
            results.append(CheckResult(name, False, str(exc)))
    if shallow_truncation:
        results.append(_shallow_truncation_result())
    return results


__all__ = ["CheckResult", "check_names", "run_selftest"]
