"""The exact rational scalar layer: Fraction helpers and factorials."""
from __future__ import annotations

import subprocess
import sys

import pytest

from kdvcorr.rationals import (
    double_factorial,
    factorial,
    num_den,
    odd_double_factorial,
    rat,
    rat_str,
)


def test_rat_constructs_reduced_values():
    assert rat(6, 4) == rat(3, 2)
    assert rat(-6, 4) == rat(-3, 2)
    assert rat(0, 7) == rat(0)
    assert rat(5) == rat(5, 1)


def test_rat_arithmetic_is_exact():
    third = rat(1, 3)
    assert third + third + third == rat(1)
    assert rat(1, 10) * rat(10) == rat(1)
    assert rat(2, 3) - rat(1, 6) == rat(1, 2)
    assert rat(1, 7) / rat(1, 7) == rat(1)


def test_rat_str_forms():
    assert rat_str(rat(29, 5760)) == "29/5760"
    assert rat_str(rat(-1, 24)) == "-1/24"
    assert rat_str(rat(4, 2)) == "2"
    assert rat_str(rat(0)) == "0"


def test_num_den_returns_plain_ints():
    num, den = num_den(rat(29, 5760))
    assert (num, den) == (29, 5760)
    assert isinstance(num, int) and isinstance(den, int)
    assert num_den(rat(-3, 9)) == (-1, 3)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_odd_double_factorial_matches_insertion_weight():
    for k in range(8):
        assert odd_double_factorial(k) == double_factorial(2 * k + 1)
    assert odd_double_factorial(0) == 1
    assert odd_double_factorial(3) == 105


def test_factorial_reexported_from_math():
    assert factorial(6) == 720


def test_fraction_is_the_one_type_whatever_the_environment(src_env):
    # the retired backend switch is ignored, even with a value it rejected
    code = (
        "import kdvcorr;"
        "from fractions import Fraction;"
        "assert type(kdvcorr.rat(1, 3)) is Fraction, type(kdvcorr.rat(1, 3));"
        "assert kdvcorr.BACKEND == 'fraction', kdvcorr.BACKEND;"
        "print('ok')"
    )
    env = dict(src_env, KDVCORR_BACKEND="decimal")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
