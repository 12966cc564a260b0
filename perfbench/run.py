"""kdvcorr benchmark: oracle-checked exact-arithmetic workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of psi-tables, wp-volumes, point-queries, jet-identities, or
``all`` to run each in turn.  Run from the root of a source checkout; the
program is imported from its ``src``.

With --trace 0 the run repeats whole rounds of the workload, each in a fresh
interpreter because kdvcorr's caches are process-global, for about S
seconds; around the rounds it times interpreter start-up to
``import kdvcorr`` (setup_s).  Requests go one at a time from one client
(closed loop).  Times are reported at a fixed reference speed of the host
(hostspeed.py); wall_s, cpu_s and peak_rss_mb are medians over rounds, the
latency percentiles are over the requests of all rounds.  With --trace 1 it
runs one plain round, one round with layer spans and one under cProfile for
the coefficient ring, and reports the per-layer metrics.

Every output of every round is checked against oracles computed without
kdvcorr (see oracles.py); a wrong output counts as a failed operation and
makes the exit code 1.  The last line of stdout is the result as JSON; the
line before it is the run record (backend, cores, Python, revision, seed,
host speed and the uncorrected times).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # before each round and after the last
CHILD_TIMEOUT_S = 170
# below this many requests per round a percentile is no tail (p95 would be
# the slowest or second-slowest request), so both latency fields report the
# mean request latency instead (its median over rounds)
MIN_PERCENTILE_SAMPLES = 40

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("query_p50_ms", "ms"), ("query_p95_ms", "ms")]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _setup_probes(env: dict) -> tuple[list, list]:
    """SETUP_PROBES times from spawning an interpreter until `import kdvcorr`
    returns, bracketed by host-speed probes: (at reference speed, raw)."""
    before = hostspeed.loop_ms()
    stolen0 = hostspeed.stolen_s()
    raw = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", "import kdvcorr, time; print(time.monotonic())"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(proc.stdout) - start)
    # the CPU time of the probes is not measured: steal is charged in full
    unstolen = hostspeed.unstolen_share(sum(raw), 0.0, hostspeed.stolen_s() - stolen0)
    factor = hostspeed.factor(before, hostspeed.loop_ms()) * unstolen
    return [t * factor for t in raw], raw


def _round(env: dict, mode: str, requests: list) -> dict:
    spec = json.dumps({"root": str(ROOT), "mode": mode, "requests": requests})
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=spec,
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def _latency_ms(rounds: list, percent: int) -> float:
    """The percent-th percentile, in ms, of the request latencies at
    reference speed, pooled over the run's rounds and interpolated between
    neighbouring latencies: the slow end of point-queries is sparse, so the
    nearest rank would jump between requests a tenth apart in cost.  Below
    MIN_PERCENTILE_SAMPLES requests per round it is the median over rounds
    of the mean request latency."""
    if len(rounds[0]["ref_latencies_s"]) < MIN_PERCENTILE_SAMPLES:
        return 1000 * statistics.median(
            statistics.fmean(r["ref_latencies_s"]) for r in rounds)
    latencies = [t for r in rounds for t in r["ref_latencies_s"]]
    return 1000 * statistics.quantiles(latencies, n=100)[percent - 1]


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    requests = workloads.make_requests(name, seed)
    env = _env()
    if trace:
        rounds = [_round(env, mode, requests) for mode in ("plain", "trace", "profile")]
    else:
        # set-up probes run between rounds so that their median spans the
        # run; a round starts only if it is expected to end within `seconds`
        setup, setup_raw, rounds = [], [], []
        start = time.monotonic()
        while True:
            ref_times, raw = _setup_probes(env)
            setup += ref_times
            setup_raw += raw
            rounds.append(_round(env, "plain", requests))
            elapsed = time.monotonic() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        ref_times, raw = _setup_probes(env)
        setup += ref_times
        setup_raw += raw

    ref = workloads.Reference(ROOT)
    failed = 0
    for rnd in rounds:
        for req, out in zip(requests, rnd["outputs"], strict=True):
            problem = workloads.check(ref, req, out)
            if problem is not None:
                failed += 1
                print(f"FAILED {name}: {problem}", file=sys.stderr)
    attempted = len(rounds) * len(requests)

    def med(key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        plain, traced, profiled = rounds
        layers = {**traced["layers"], **profiled["layers"],
                  "cli.output_bytes": traced["output_bytes"],
                  "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.METRICS}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": med("ref_wall_s"),
            "cpu_s": med("ref_cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "query_p50_ms": _latency_ms(rounds, 50),
            "query_p95_ms": _latency_ms(rounds, 95),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "backend": rounds[0]["backend"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "revision": _git_revision(),
        # the raw times behind the reported ones, and the host's speed
        "loop_ms": statistics.median(p for r in rounds for p in r["loop_ms"])
        if not trace else None,
        "raw_wall_s": med("wall_s"),
        "stolen_s": None if trace else med("stolen_s"),
        "raw_setup_s": None if trace else statistics.median(setup_raw),
        "rounds": len(rounds), "requests_per_round": len(requests),
        "attempted": attempted, "failed": failed,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kdvcorr" / "__init__.py").is_file():
        print(f"no kdvcorr source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        record, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:32s} {m['value']:14.6g} {m['unit']}",
                  file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
