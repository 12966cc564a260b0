"""Built-in identity suite: names, pass/fail wiring, demo fault modes."""
from __future__ import annotations

import pytest

from kdvcorr import selftest, wk, wp
from kdvcorr.diffpoly import DiffPoly
from kdvcorr.rationals import rat
from kdvcorr.selftest import CheckResult, check_names, run_selftest
from kdvcorr.series import LaurentSeries


def test_all_checks_pass_at_default_depth():
    results = run_selftest()
    assert all(isinstance(r, CheckResult) for r in results)
    failed = [r.name for r in results if not r.ok]
    assert failed == []


def test_result_names_match_check_names():
    names = check_names()
    assert len(names) == len(set(names))
    assert [r.name for r in run_selftest(depth=8)] == names


def test_depth_floor():
    with pytest.raises(ValueError):
        run_selftest(depth=5)
    run_selftest(depth=6)  # smallest accepted depth still completes


def test_injected_fault_is_caught():
    results = run_selftest(depth=8, inject_fault=True)
    failed = [r.name for r in results if not r.ok]
    assert failed == ["correlator-spots"]
    detail = next(r.detail for r in results if not r.ok)
    assert detail  # the failure carries a human-readable explanation


def test_shallow_truncation_demo_is_flagged():
    results = run_selftest(depth=8, shallow_truncation=True)
    assert [r.name for r in results][:-1] == check_names()
    demo = results[-1]
    assert demo.name == "shallow-truncation"
    assert not demo.ok
    assert "flagged" in demo.detail


def test_deeper_run_still_passes():
    assert all(r.ok for r in run_selftest(depth=16))


def test_a_wrong_m_fails_the_checks_that_read_it(monkeypatch):
    # M_21 doubled at y^-5, its genus-two term: both checks of M against the
    # series c and q must fail and name the wrong order, z^-10
    m_matrix = wk.m_matrix

    def wrong(floor):
        m = m_matrix(floor)
        if -5 in m[1][0]:
            m[1][0][-5] *= 2
        return m

    monkeypatch.setattr(wk, "m_matrix", wrong)
    results = {r.name: r for r in run_selftest(depth=12)}
    for name in ("closed-products", "one-point-forms"):
        assert not results[name].ok
        assert "z^-10" in results[name].detail


def _doubled(real):
    return lambda *args: real(*args) * rat(2)


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _plus_z0(real):
    return lambda *args: real(*args) + LaurentSeries.one()


def _chi_off(real):
    # a z^-1 term, constant in x, leaves chi_x alone but not chi^2 or chi R
    return lambda depth: real(depth) + LaurentSeries({-1: DiffPoly.const(1)})


def _ks_call_off(call):
    """ks_pair with its first series doubled on the given call (1 or 2)."""

    def make(real):
        calls = []

        def wrong(p, q):
            calls.append(None)
            sp, sq = real(p, q)
            return (sp * rat(2), sq) if len(calls) == call else (sp, sq)

        return wrong

    return make


_WRONG_INPUTS = [
    ("wave-wronskian", wk, "fz_q", _doubled, "c qbar + cbar q"),
    ("riccati-residual", selftest, "riccati_chi", _chi_off, "Riccati residual"),
    ("chi-from-resolvent", selftest, "riccati_chi", _chi_off, "chi R mismatch"),
    ("bell-rows", selftest, "l_entry", _plus_one, "Bell row"),
    ("flow-commutation", wp, "wave_flow_pair", lambda real: lambda mu: mu,
     "flow order"),
    ("deformed-wronskian", wp, "pair_series", _doubled, "deformed Wronskian"),
    ("deformed-negative-powers", wp, "pair_series", _plus_z0,
     "has non-negative powers"),
    ("deformed-ks-relations", wp, "ks_pair", _ks_call_off(1),
     "first deformed operator relation"),
    ("deformed-ks-relations", wp, "ks_pair", _ks_call_off(2),
     "second deformed operator relation"),
    ("correlator-spots", wp, "mixed_correlator", _plus_one, "<kappa_(1,)"),
    ("truncation-guard", selftest, "npoint_window",
     lambda real: lambda *args, **kwargs: {}, "passed the doubling check"),
]


@pytest.mark.parametrize(
    "name, target, attr, make_wrong, detail",
    _WRONG_INPUTS,
    ids=[f"{name}-{detail.split()[0]}" if name == "deformed-ks-relations" else name
         for name, *_, detail in _WRONG_INPUTS],
)
def test_a_wrong_input_fails_the_check_that_reads_it(
    monkeypatch, name, target, attr, make_wrong, detail
):
    monkeypatch.setattr(target, attr, make_wrong(getattr(target, attr)))
    results = {r.name: r for r in run_selftest(depth=8)}
    assert not results[name].ok
    assert detail in results[name].detail


def test_a_floor_blind_matrix_escapes_the_shallow_truncation_demo(monkeypatch):
    # a matrix complete below any floor asked of it gives the doubling check
    # nothing to flag, and the demo entry says so
    m_matrix = wk.m_matrix
    monkeypatch.setattr(wk, "m_matrix", lambda floor: m_matrix(-20))
    demo = run_selftest(depth=8, shallow_truncation=True)[-1]
    assert demo.name == "shallow-truncation"
    assert not demo.ok
    assert "escaped" in demo.detail
