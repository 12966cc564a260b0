"""Integer partitions, the L transition matrix, and sparse s-polynomials."""
from __future__ import annotations

from itertools import product

import pytest

from kdvcorr.partitions import (
    SPoly,
    bell_number,
    h_polynomials,
    l_entry,
    monomial_weight,
    mult_factorial,
    multiplicities,
    negate_variables,
    partition_to_monomial,
    partitions_of,
)
from kdvcorr.rationals import rat


def test_partition_counts():
    counts = [len(partitions_of(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert partitions_of(0) == [()]


def test_partitions_are_sorted_descending():
    for lam in partitions_of(6):
        assert tuple(sorted(lam, reverse=True)) == lam
    assert (2, 2, 1) in partitions_of(5)


def test_partitions_respect_max_part():
    for lam in partitions_of(7, max_part=2):
        assert all(p <= 2 for p in lam)
    assert (1, 1, 1) in partitions_of(3, max_part=1) or partitions_of(
        3, max_part=1
    ) == [(1, 1, 1)]


def test_multiplicities_and_mult_factorial():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert mult_factorial((3, 2, 2, 1)) == 2
    assert mult_factorial((1, 1, 1)) == 6
    assert mult_factorial((1, 1)) == 2
    assert mult_factorial(()) == 1


def test_l_entry_low_weight_values():
    assert l_entry((1,), (1,)) == 1
    assert l_entry((2,), (2,)) == 1
    assert l_entry((1, 1), (2,)) == 1
    assert l_entry((1, 1), (1, 1)) == 2
    assert l_entry((2,), (1, 1)) == 0
    assert l_entry((1,), (2,)) == 0  # weight mismatch
    assert l_entry((), ()) == 1


def test_l_entry_weight_three():
    # the matrix is lower triangular in reverse lexicographic order
    assert l_entry((3,), (3,)) == 1
    assert l_entry((3,), (2, 1)) == 0
    assert l_entry((2, 1), (3,)) == 1
    assert l_entry((2, 1), (2, 1)) == 1
    assert l_entry((1, 1, 1), (3,)) == 1
    assert l_entry((1, 1, 1), (2, 1)) == 3
    assert l_entry((1, 1, 1), (1, 1, 1)) == 6


def _part_to_box_maps(lam, mu) -> int:
    """Maps sending the parts of lam, as a list, to len(mu) boxes whose
    box sums are mu_1, ..., mu_l."""
    count = 0
    for boxes in product(range(len(mu)), repeat=len(lam)):
        sums = [0] * len(mu)
        for part, box in zip(lam, boxes):
            sums[box] += part
        count += sums == list(mu)
    return count


def test_l_entry_counts_part_to_box_maps():
    pairs = [(lam, mu) for n in range(7)
             for lam in partitions_of(n) for mu in partitions_of(n)]
    assert len(pairs) == 210
    for lam, mu in pairs:
        val = l_entry(lam, mu)
        assert type(val) is int and val == _part_to_box_maps(lam, mu), (lam, mu)


@pytest.mark.parametrize("lam,mu", [((0,), (1,)), ((1,), (0,)), ((0,), (0,)),
                                    ((2, -1), (1,)), ((1,), (2, -1)),
                                    ((-1,), (-1,))])
def test_l_entry_refuses_parts_below_one(lam, mu):
    # a part below 1 names no h_k; it must not wrap round to h_K
    with pytest.raises(ValueError, match="positive"):
        l_entry(lam, mu)


def test_bell_numbers():
    assert [bell_number(k) for k in range(8)] == [
        1, 1, 2, 5, 15, 52, 203, 877,
    ]
    with pytest.raises(ValueError):
        bell_number(-1)


def test_bell_numbers_from_l_rows():
    # sum over mu of L[(1^k), mu] / m(mu)! counts set partitions
    for k in range(1, 7):
        ones = (1,) * k
        total = 0
        for mu in partitions_of(k):
            val = l_entry(ones, mu)
            assert val % mult_factorial(mu) == 0
            total += val // mult_factorial(mu)
        assert total == bell_number(k), k


def test_partition_monomial_round_trip():
    assert partition_to_monomial(()) == ()
    assert partition_to_monomial((1, 1)) == (2,)
    assert partition_to_monomial((3, 1)) == (1, 0, 1)
    for n in range(7):
        for lam in partitions_of(n):
            mono = partition_to_monomial(lam)
            # exponent e_j of s_j is the multiplicity of the part j
            assert {j + 1: e for j, e in enumerate(mono) if e} == multiplicities(lam)
            assert monomial_weight(mono) == n


def test_spoly_arithmetic():
    s1 = SPoly.var(1)
    s2 = SPoly.var(2)
    f = s1 * s1 + 2 * s2
    assert f.coefficient((2,)) == rat(1)
    assert f.coefficient((0, 1)) == rat(2)
    assert (f - f) == SPoly()
    assert not SPoly()
    assert SPoly.const(5) - 5 == SPoly()


def test_spoly_coefficient_of_partition():
    s1 = SPoly.var(1)
    f = s1 * s1 * rat(1, 2)
    assert f.coefficient(partition_to_monomial((1, 1))) == rat(1, 2)
    assert f.coefficient(partition_to_monomial((2,))) == 0


def test_truncate_weight_caps_products():
    s1 = SPoly.var(1)
    one = SPoly.const(1).truncate_weight(2)
    f = (one + s1) * (1 + s1) * (1 + s1)
    assert f.cap == 2
    assert f.coefficient(()) == rat(1)
    assert f.coefficient((1,)) == rat(3)
    assert f.coefficient((2,)) == rat(3)
    with pytest.raises(ValueError):
        f.coefficient((3,))  # weight 3 is above the cap, so unknown
    g = (1 + s1) * (1 + s1) * (1 + s1)
    assert g.cap is None
    assert g.coefficient((3,)) == rat(1)


def test_truncate_weight():
    s1, s3 = SPoly.var(1), SPoly.var(3)
    f = s1 * s3 + s1
    g = f.truncate_weight(2)
    assert g == s1


def test_h_polynomials():
    hs = h_polynomials(3)
    s1, s2, s3 = SPoly.var(1), SPoly.var(2), SPoly.var(3)
    assert hs[0] == SPoly.const(1)
    assert hs[1] == s1
    assert hs[2] == s1 * s1 * rat(1, 2) + s2
    assert hs[3] == s1 * s1 * s1 * rat(1, 6) + s1 * s2 + s3


def test_h_polynomials_returns_a_fresh_list():
    # the h_k are built once and shared, so a caller's list is its own
    hs = h_polynomials(3)
    want = list(hs)
    hs.pop()
    hs[0] = SPoly.var(5)
    assert h_polynomials(3) == want
    assert h_polynomials(2) == want[:3]
    assert h_polynomials(-1) == want[:1]


def test_h_polynomials_generating_identity():
    # exp(sum s_j x^j) = sum h_k x^k order by order; check the x^4 slot
    hs = h_polynomials(4)
    # h_4 = s_1^4/24 + s_1^2 s_2 / 2 + s_2^2/2 + s_1 s_3 + s_4
    s1, s2, s3, s4 = (SPoly.var(j) for j in range(1, 5))
    expect = (
        s1 * s1 * s1 * s1 * rat(1, 24)
        + s1 * s1 * s2 * rat(1, 2)
        + s2 * s2 * rat(1, 2)
        + s1 * s3
        + s4
    )
    assert hs[4] == expect


def test_negate_variables():
    s1, s2 = SPoly.var(1), SPoly.var(2)
    f = s1 * s1 + s2 + s1
    g = negate_variables(f)
    assert g.coefficient((2,)) == rat(1)
    assert g.coefficient((0, 1)) == rat(-1)
    assert g.coefficient((1,)) == rat(-1)
    assert negate_variables(negate_variables(f)) == f


def _random_spoly(rng) -> SPoly:
    total = SPoly.const(rat(rng.randint(-3, 3)))
    for _ in range(rng.randint(0, 4)):
        term = SPoly.const(rat(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3)):
            term = term * SPoly.var(rng.randint(1, 4))
        total = total + term
    return total


def test_random_capped_ring_axioms():
    import random

    rng = random.Random(20260823)
    for trial in range(25):
        a, b, c = (_random_spoly(rng) for _ in range(3))
        cap = rng.randint(2, 6)
        ac = a.truncate_weight(cap)
        full = a * b * c
        want = {m: v for m, v in full.terms.items() if monomial_weight(m) <= cap}
        assert ((ac * b) * c).terms == (ac * (b * c)).terms == want, (trial, cap)
        assert (ac * (b + c)).terms == (ac * b + ac * c).terms, (trial, cap)
        # terms above the cap in either factor can never contribute
        assert (ac * b).terms == (ac * b.truncate_weight(cap)).terms, (trial, cap)
        lam = (2, 1) if rng.random() < 0.5 else (1, 1)
        mono = partition_to_monomial(lam)
        assert (a + b).coefficient(mono) == a.coefficient(mono) + b.coefficient(
            mono
        ), trial
