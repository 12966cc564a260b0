"""Shared fixtures: the independent oracles of perfbench/oracles.py."""
from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="session")
def src_env():
    """The environment with this checkout's src first on PYTHONPATH, so a
    child interpreter imports the kdvcorr under test however pytest runs."""
    env = dict(os.environ)
    path = (str(ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


@pytest.fixture(scope="session")
def oracles():
    """The oracle module, which shares no code with kdvcorr."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import oracles as module
    return module


@pytest.fixture(scope="session")
def psi(oracles):
    """One memoized DVV recursion for <tau_{k_1} ... tau_{k_n}>."""
    return oracles.PsiNumbers()


def _partitions(d: int, top: int | None = None):
    """Every partition of d into parts <= top, as weakly decreasing lists."""
    if d == 0:
        yield []
        return
    for first in range(min(d, top or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield [first, *rest]


@pytest.fixture(scope="session")
def kappa1_number(psi):
    """<kappa_1^d tau_K> from DVV: the set-partition pushforward of
    oracles.kappa_number with the blocks grouped by their sizes mu,

        sum_{mu |- d} (-1)^{d - l(mu)} d!/(prod mu_i! prod_j m_j(mu)!)
                      <prod_i tau_{mu_i + 1} tau_K>,

    p(d) terms where kappa_number sums Bell(d)."""

    def value(d: int, ks) -> Fraction:
        total = Fraction(0)
        for mu in _partitions(d):
            blocks = prod(factorial(m) for m in mu)
            blocks *= prod(factorial(mu.count(m)) for m in set(mu))
            term = psi([m + 1 for m in mu] + list(ks)) * (factorial(d) // blocks)
            total += term if (d - len(mu)) % 2 == 0 else -term
        return total

    return value
