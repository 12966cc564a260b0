"""Execute one round of benchmark requests in a fresh interpreter.

Usage (from run.py): python3 perfbench/child.py < spec.json, with PYTHONPATH
pointing at the checkout's src.  The spec holds the checkout root, the mode
("plain", "trace" or "profile") and the requests.  The child times the
request sequence, then converts the results to JSON and prints one object:
timings, resource use, outputs and, in the traced modes, layer metrics.
Plain rounds also report each time at the reference host speed and
without steal time (``ref_*``, see hostspeed.py).
"""
import time

import kdvcorr  # first, so the import is all the set-up a request waits for
from kdvcorr import cli, diffpoly, npoint, partitions, selftest, series, wk, wp

import contextlib
import cProfile
import io
import json
import resource
import sys
from pathlib import Path

import hostspeed
import tracing

CALIBRATE_EVERY_S = 0.5
MODULES = {"npoint": npoint, "wk": wk, "wp": wp, "diffpoly": diffpoly,
           "partitions": partitions, "series": series, "selftest": selftest,
           "cli": cli}


def _cpu_s() -> float:
    """User and system time of this process and of its reaped children
    (the pool workers)."""
    return sum(getattr(r, f)
               for r in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN))
               for f in ("ru_utime", "ru_stime"))


def _execute(req: dict):
    op = req["op"]
    if op == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(req["argv"]))
        return {"code": code, "stdout": buf.getvalue()}
    if op == "theta_matrix":
        return diffpoly.theta_matrix(req["K"])
    if op == "two_point_general":
        p, q = req["p"], req["q"]
        return diffpoly.two_point_general(p, q, p + q + 3)
    raise ValueError(f"unknown op {op!r}")


def _at_origin(poly) -> str:
    """Value of a differential polynomial at u = 0, u_x = 1, higher jets 0."""
    total = sum(c for mono, c in poly.terms.items()
                if not mono or (len(mono) == 2 and mono[0] == 0))
    return str(total)


def _to_json(req: dict, out):
    if isinstance(out, dict):  # CLI output or a caught error
        return out
    if req["op"] == "theta_matrix":
        return [[[ent.low, {str(e): v for e, c in ent.coefficients.items()
                            if (v := _at_origin(c)) != "0"}]
                 for ent in row] for row in out]
    return _at_origin(out)


def main() -> int:
    spec = json.load(sys.stdin)
    src = (Path(spec["root"]) / "src").resolve()
    if src not in Path(kdvcorr.__file__).resolve().parents:
        print(f"kdvcorr imported from {kdvcorr.__file__}, not {src}", file=sys.stderr)
        return 3
    mode, requests = spec["mode"], spec["requests"]
    tracer = profile = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(MODULES)
    elif mode == "profile":
        profile = cProfile.Profile(builtins=False)

    # plain rounds bracket every stretch of about CALIBRATE_EVERY_S of
    # requests with host-speed probes and read the steal time around it
    # (hostspeed.py); the probes run outside the timed requests
    calibrate = mode == "plain"
    results, latencies, cpus, probes, stretches = [], [], [], [], []
    if calibrate:
        probes.append(hostspeed.loop_ms())
    if profile is not None:
        profile.enable()
    first, stretch_s, stolen0 = 0, 0.0, hostspeed.stolen_s()
    for i, req in enumerate(requests):
        usage0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            results.append(_execute(req))
        except Exception as exc:  # a failed operation, checked like the rest
            results.append({"error": f"{type(exc).__name__}: {exc}"})
        latencies.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - usage0)
        stretch_s += latencies[-1]
        if calibrate and (stretch_s >= CALIBRATE_EVERY_S or i == len(requests) - 1):
            stolen = hostspeed.stolen_s() - stolen0
            probes.append(hostspeed.loop_ms())
            stretches.append((first, i + 1, stolen))
            first, stretch_s, stolen0 = i + 1, 0.0, hostspeed.stolen_s()
    if profile is not None:
        profile.disable()
    wall_factors = cpu_factors = [1.0] * len(requests)
    if calibrate:
        smoothed = hostspeed.smooth(probes)
        wall_factors, cpu_factors = [], []
        for k, (a, b, stolen) in enumerate(stretches):
            speed = hostspeed.factor(smoothed[k], smoothed[k + 1])
            unstolen = hostspeed.unstolen_share(sum(latencies[a:b]), sum(cpus[a:b]), stolen)
            wall_factors += [speed * unstolen] * (b - a)
            cpu_factors += [speed] * (b - a)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    outputs = [_to_json(req, out) for req, out in zip(requests, results)]
    report = {
        "backend": kdvcorr.BACKEND,
        "wall_s": sum(latencies),
        "cpu_s": sum(cpus),
        "ref_wall_s": sum(t * f for t, f in zip(latencies, wall_factors)),
        "ref_cpu_s": sum(t * f for t, f in zip(cpus, cpu_factors)),
        "ref_latencies_s": [t * f for t, f in zip(latencies, wall_factors)],
        "stolen_s": sum(stolen for _, _, stolen in stretches),
        "loop_ms": probes,
        # ru_maxrss is in KiB; children's figure is the largest pool worker
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024,
        "output_bytes": sum(len(o["stdout"].encode()) for o in results
                            if isinstance(o, dict) and "stdout" in o),
        "outputs": outputs,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    if profile is not None:
        report["layers"] = tracing.rationals_profile(profile)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
