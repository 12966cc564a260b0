"""Tests of the benchmark's oracles and input generator.

Run with: python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def psi():
    return oracles.PsiNumbers()


@pytest.mark.parametrize(
    "ks, value",
    [
        ((0, 0, 0), Fraction(1)),
        ((1,), Fraction(1, 24)),
        ((4,), Fraction(1, 1152)),
        ((7,), Fraction(1, 82944)),
        ((2, 3), Fraction(29, 5760)),
        ((1, 4), Fraction(1, 384)),
        ((1, 1, 1, 1), Fraction(6, 24)),  # <tau_1^n>_1 = (n-1)!/24
    ],
)
def test_published_psi_numbers(psi, ks, value):
    assert psi(ks) == value


def test_published_kappa_numbers(psi):
    assert oracles.kappa_number(psi, [1], [0]) == Fraction(1, 24)  # M_{1,1}
    assert oracles.kappa_number(psi, [1, 1], [0] * 5) == 5  # kappa_1^2 on M_{0,5}


def test_genus_zero_against_multinomial(psi):
    """<tau_K>_0 = (n-3)!/prod k_i! whenever sum k = n - 3."""
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(3, 8)
        ks = [0] * n
        for _ in range(n - 3):
            ks[rng.randrange(n)] += 1
        want = Fraction(factorial(n - 3))
        for k in ks:
            want /= factorial(k)
        assert psi(ks) == want, ks


def test_dvv_agrees_with_dijkgraaf(psi):
    closed = oracles.two_point_numbers(29)
    for total in range(30):
        for a in range(total // 2 + 1):
            assert psi((a, total - a)) == closed.get((a, total - a), 0), (a, total - a)


def test_seeded_two_point_values_match_recursion(psi):
    seeded = oracles.PsiNumbers(oracles.two_point_numbers(40))
    for ks in [(2, 3, 4), (0, 5, 12), (1, 7, 7), (2, 2, 2, 6), (0, 1, 3, 8)]:
        assert seeded(ks) == psi(ks), ks


def test_m_matrix_squares_to_z2():
    low = -40
    m = oracles.m_matrix_z(low)
    for i in range(2):
        for j in range(2):
            prod_ij: dict = {}
            for k in range(2):
                for e1, c1 in m[i][k].items():
                    for e2, c2 in m[k][j].items():
                        prod_ij[e1 + e2] = prod_ij.get(e1 + e2, 0) + c1 * c2
            # entries reach z^4 at most, so products are complete above low + 4
            got = {e: c for e, c in prod_ij.items() if e >= low + 4 and c}
            assert got == ({2: 1} if i == j else {}), (i, j)


def test_release_table_agrees_with_dvv_where_both_reach():
    ref = workloads.Reference(ROOT)
    shared = [ks for ks in ref.frozen_three if oracles.genus_of(ks) <= 9]
    assert len(shared) > 50
    for ks in shared:
        assert ref.frozen_three[ks] == ref.psi(ks), ks


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_requests_depend_only_on_seed(name):
    first = workloads.make_requests(name, 7)
    assert first == workloads.make_requests(name, 7)
    assert len(first) == len(workloads.make_requests(name, 8))


def test_point_queries_size_and_seed_effect():
    a = workloads.make_requests("point-queries", 1)
    b = workloads.make_requests("point-queries", 2)
    assert len(a) >= 200  # at least ten latencies beyond p95
    assert a != b
    kinds = [[r["argv"][0] for r in reqs] for reqs in (a, b)]
    assert sorted(kinds[0]) == sorted(kinds[1])


def test_check_flags_a_wrong_value():
    ref = workloads.Reference(ROOT)
    req = {"op": "cli", "argv": ["tau", "3,2", "--verify", "--format", "json"]}

    def out(num, den):
        value = {"num": str(num), "den": str(den)}
        text = json.dumps({"indices": [3, 2], "genus": 2, "value": value})
        return {"code": 0, "stdout": text}

    assert workloads.check(ref, req, out(29, 5760)) is None
    assert workloads.check(ref, req, out(29, 5761)) is not None
    assert workloads.check(ref, req, {"error": "ValueError: boom"}) is not None
