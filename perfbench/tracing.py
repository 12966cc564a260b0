"""Per-layer spans and counts, recorded from the benchmark's own code.

``Tracer.install`` replaces public functions of kdvcorr with timing wrappers
at every module attribute the program calls them through (``wk`` calls
``npoint_window`` under its own name, so it is wrapped there as well as in
``npoint``).  A span's self time is its duration minus the time of the spans
it encloses; spans are aggregated per name as they close, because the ring
products make millions of them.  Spans inside pool worker processes are not
seen: a parent span that waits for a pool counts the wait as its own time.

``rationals_profile`` covers the coefficient ring, which is too fine-grained
to wrap: it sums cProfile's call counts and own times over ``fractions`` and
``kdvcorr.rationals``.  The profile leaves out builtins, which halves its
cost; time in ``math.gcd`` counts as its caller's.
"""
from __future__ import annotations

import functools
import pstats
import time
from math import factorial

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("rationals.calls", "count"),
    ("rationals.busy_s", "s"),
    ("npoint.window_calls", "count"),
    ("npoint.window_s", "s"),
    ("npoint.keys_out", "count"),
    ("npoint.classes", "count"),
    ("wk.m_matrix_calls", "count"),
    ("wk.m_matrix_s", "s"),
    ("wk.extract_s", "s"),
    ("wk.correlator_s", "s"),
    ("wp.deformed_wave_calls", "count"),
    ("wp.deformed_wave_s", "s"),
    ("wp.wave_flow_pair_calls", "count"),
    ("wp.wave_flow_pair_s", "s"),
    ("wp.m_kappa_matrix_calls", "count"),
    ("wp.m_kappa_matrix_s", "s"),
    ("wp.f_kappa_1_s", "s"),
    ("wp.mixed_correlator_s", "s"),
    ("wp.wp_volume_s", "s"),
    ("diffpoly.omega_s", "s"),
    ("diffpoly.omega_terms", "count"),
    ("diffpoly.mul_calls", "count"),
    ("diffpoly.mul_s", "s"),
    ("diffpoly.theta_matrix_s", "s"),
    ("diffpoly.two_point_general_s", "s"),
    ("diffpoly.flow_derivative_calls", "count"),
    ("diffpoly.flow_derivative_s", "s"),
    ("series.mul_calls", "count"),
    ("series.mul_s", "s"),
    ("partitions.spoly_mul_calls", "count"),
    ("partitions.spoly_mul_s", "s"),
    ("partitions.l_entry_s", "s"),
    ("selftest.run_s", "s"),
    ("cli.format_s", "s"),
    ("cli.output_bytes", "count"),
    ("trace.overhead_s", "s"),
]

# span name -> (module, attribute) pairs it is installed at
_FUNCTIONS = {
    "npoint.window": [("npoint", "npoint_window"), ("wk", "npoint_window"),
                      ("wp", "npoint_window"), ("selftest", "npoint_window")],
    "wk.m_matrix": [("wk", "m_matrix")],
    "wk.extract": [("wk", "n_point_table")],
    "wk.correlator": [("wk", "correlator")],
    "wp.deformed_wave": [("wp", "deformed_wave")],
    "wp.wave_flow_pair": [("wp", "wave_flow_pair")],
    "wp.m_kappa_matrix": [("wp", "m_kappa_matrix")],
    "wp.f_kappa_1": [("wp", "f_kappa_1")],
    "wp.mixed_correlator": [("wp", "mixed_correlator")],
    "wp.wp_volume": [("wp", "wp_volume")],
    "diffpoly.omega": [("diffpoly", "omega"), ("wp", "omega"), ("selftest", "omega")],
    "diffpoly.theta_matrix": [("diffpoly", "theta_matrix"), ("selftest", "theta_matrix")],
    "diffpoly.two_point_general": [("diffpoly", "two_point_general")],
    "diffpoly.flow_derivative": [("diffpoly", "flow_derivative"),
                                 ("wp", "flow_derivative")],
    "partitions.l_entry": [("partitions", "l_entry"), ("wp", "l_entry"),
                           ("selftest", "l_entry")],
    "selftest.run": [("selftest", "run_selftest"), ("cli", "run_selftest")],
    "cli.format": [("cli", "main")],
}
# span name -> (module, class, method names); __rmul__ of DiffPoly and SPoly
# calls __mul__, so only LaurentSeries needs both
_METHODS = {
    "diffpoly.mul": ("diffpoly", "DiffPoly", ("__mul__",)),
    "series.mul": ("series", "LaurentSeries", ("__mul__", "__rmul__")),
    "partitions.spoly_mul": ("partitions", "SPoly", ("__mul__",)),
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[float] = []  # enclosed-span time of each open span
        self.keys_out = 0
        self.classes = 0
        self.omega_terms: dict[int, int] = {}

    def wrap(self, name: str, fn, on_result=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stat[0] += 1
                stat[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _window_done(self, args, kwargs, result):
        n = args[0]
        passes = 2 if kwargs.get("verify") else 1
        self.classes += passes * (1 if n == 2 else factorial(n - 1) // 2)
        self.keys_out += len(result)

    def _omega_done(self, args, kwargs, result):
        self.omega_terms[args[0]] = len(result.terms)

    def install(self, kdvcorr_modules: dict) -> None:
        hooks = {"npoint.window": self._window_done, "diffpoly.omega": self._omega_done}
        for name, sites in _FUNCTIONS.items():
            home_mod, home_attr = sites[0]
            traced = self.wrap(name, getattr(kdvcorr_modules[home_mod], home_attr),
                               hooks.get(name))
            for mod, attr in sites:
                setattr(kdvcorr_modules[mod], attr, traced)
        for name, (mod, cls_name, methods) in _METHODS.items():
            cls = getattr(kdvcorr_modules[mod], cls_name)
            for meth in methods:
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))

    def metrics(self) -> dict[str, float]:
        """Span metrics are named <span>_calls and <span>_s (self time)."""
        out = {"npoint.keys_out": self.keys_out, "npoint.classes": self.classes,
               "diffpoly.omega_terms": sum(self.omega_terms.values())}
        for name, _ in METRICS:
            span, _, kind = name.rpartition("_")
            if span in self.spans and kind in ("calls", "s"):
                calls, self_s = self.spans[span]
                out[name] = calls if kind == "calls" else self_s
        return out


def rationals_profile(profile) -> dict[str, float]:
    """rationals.calls and rationals.busy_s from a finished cProfile run."""
    calls, busy = 0, 0.0
    for (filename, _, _), (_, ncalls, own, _, _) in pstats.Stats(profile).stats.items():
        if filename.endswith(("fractions.py", "kdvcorr/rationals.py")):
            calls += ncalls
            busy += own
    return {"rationals.calls": calls, "rationals.busy_s": busy}
