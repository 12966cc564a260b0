"""The public names: every entry of an `__all__` is defined."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import kdvcorr
from kdvcorr import diffpoly, partitions, wp


def test_every_exported_name_resolves():
    modules = [kdvcorr] + [
        importlib.import_module(f"kdvcorr.{info.name}")
        for info in pkgutil.iter_modules(kdvcorr.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
    assert len(set(kdvcorr.__all__)) == len(kdvcorr.__all__)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: wp.wave_flow_pair((-1,)), "negative flow index"),
        (lambda: wp.f_kappa_n(1, [(-1, -1)], None), "f_kappa_1"),
        (lambda: wp.mixed_correlator((), ()), "at least one insertion"),
        (lambda: wp.kappa_linear_series(0, -4), "kappa index"),
        (lambda: wp.kappa_linear(1, -1), "negative index"),
        (lambda: wp.kappa_linear(0, 1), "kappa index"),
        (lambda: diffpoly.omega(-2), "p >= -1"),
        (lambda: partitions.partitions_of(-1), "negative weight"),
        (lambda: partitions.SPoly.var(0), "indexed from 1"),
    ],
)
def test_out_of_range_arguments_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
