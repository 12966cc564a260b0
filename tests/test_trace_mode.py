"""The benchmark's trace mode still runs against the library.

`perfbench/run.py --trace 1` wraps kdvcorr functions by module attribute
name (perfbench/tracing.py); a renamed or re-routed function would break the
traced run or leave its counter at zero.  This runs five CLI commands under
the tracer in a fresh interpreter, so the wrappers never leak into the other
tests.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from kdvcorr import cli, diffpoly, npoint, partitions, selftest, series, wk, wp

tracer = tracing.Tracer()
tracer.install({"npoint": npoint, "wk": wk, "wp": wp, "diffpoly": diffpoly,
                "partitions": partitions, "series": series,
                "selftest": selftest, "cli": cli})
box = str(wp._BOX_GENUS)  # the lowest genus whose n <= 2 volumes read the box
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["wp", box, "2"], ["wp", box, "1"], ["selftest", "--depth", "6"],
        ["table", "4", "3"],
        ["kappa", "3,1,1", "0,0", "--verify"])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def test_traced_cli_runs_and_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0, 0, 0]
    metrics = report["metrics"]
    for name in ("wp.wave_flow_pair_calls", "wp.m_kappa_matrix_calls",
                 "diffpoly.omega_terms", "diffpoly.flow_derivative_calls",
                 "npoint.window_calls", "wk.extract_s", "wp.mixed_correlator_s",
                 # the box volumes reach the s_1 wave through the wrapped
                 # module globals: deformed_wave, then f_kappa_n (n = 2) and
                 # f_kappa_1 (n = 1)
                 "wp.deformed_wave_calls", "wp.f_kappa_1_s",
                 "partitions.spoly_mul_calls"):
        assert metrics.get(name, 0) > 0, (name, metrics.get(name))
