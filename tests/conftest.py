"""Shared fixtures: the independent oracles of perfbench/oracles.py."""
from __future__ import annotations

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
