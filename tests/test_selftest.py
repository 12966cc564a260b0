"""Built-in identity suite: names, pass/fail wiring, demo fault modes."""
from __future__ import annotations

import pytest

from kdvcorr import wk
from kdvcorr.selftest import CheckResult, check_names, run_selftest


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
