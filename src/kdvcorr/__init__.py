"""Exact n-point correlation functions of the KdV tau-function hierarchy.

The package computes psi-class intersection numbers, mixed psi-kappa numbers
and Weil-Petersson volume polynomials as exact rationals, through closed
matrix-trace formulas evaluated in truncated Laurent series arithmetic.
"""
from __future__ import annotations

from .rationals import (
    BACKEND,
    double_factorial,
    factorial,
    num_den,
    odd_double_factorial,
    rat,
    rat_str,
)
from .series import LaurentSeries
from .diffpoly import (
    DiffPoly,
    flow_derivative,
    mat2_mul,
    omega,
    resolvent,
    riccati_chi,
    theta_matrix,
    two_point_general,
)
from .partitions import (
    DegreePoly,
    SPoly,
    bell_number,
    h_polynomials,
    l_entry,
    mult_factorial,
    multiplicities,
    partition_to_monomial,
    partitions_of,
)
from .npoint import TruncationInstability, npoint_window
from .wk import (
    CorrelatorTable,
    DeformedWave,
    correlator,
    deformed_wave,
    genus,
    n_point_table,
    one_point,
    pair_series,
)
from .wp import (
    WpVolume,
    kappa_linear,
    kappa_times,
    mixed_correlator,
    mixed_genus,
    wp_volume,
)
from .selftest import CheckResult, check_names, run_selftest

__all__ = [
    "BACKEND",
    "CheckResult",
    "CorrelatorTable",
    "DeformedWave",
    "DegreePoly",
    "DiffPoly",
    "LaurentSeries",
    "SPoly",
    "TruncationInstability",
    "WpVolume",
    "bell_number",
    "check_names",
    "correlator",
    "deformed_wave",
    "double_factorial",
    "factorial",
    "flow_derivative",
    "genus",
    "h_polynomials",
    "kappa_linear",
    "kappa_times",
    "l_entry",
    "mat2_mul",
    "mixed_correlator",
    "mixed_genus",
    "mult_factorial",
    "multiplicities",
    "n_point_table",
    "npoint_window",
    "num_den",
    "odd_double_factorial",
    "omega",
    "one_point",
    "pair_series",
    "partition_to_monomial",
    "partitions_of",
    "rat",
    "rat_str",
    "resolvent",
    "riccati_chi",
    "run_selftest",
    "theta_matrix",
    "two_point_general",
    "wp_volume",
]
