"""How fast the host runs right now, for reporting times at a fixed speed.

The benchmark's host is a share of a machine whose speed drifts by a fifth
and more over seconds to minutes, which no run length averages away.  Two
things slow it: other tenants contending for the cores (the program's code
runs slower) and the hypervisor holding the virtual CPUs (steal time: the
program does not run at all).  Every timed stretch of requests is therefore
corrected for both:

* **Speed.**  A fixed reference loop is timed, in CPU time of its own
  thread, just before and just after the stretch, and each probe is
  smoothed with its neighbours (`smooth`), because a single probe can catch
  a moment tens of percent faster or slower than the seconds around it.
  Times in the stretch are multiplied by REFERENCE_MS over the mean of the
  two probes (`factor`): the result is the time the work would have taken
  on a host where the loop takes REFERENCE_MS.  A change in kdvcorr moves
  the work alone, because the loop runs none of kdvcorr's code.
* **Steal.**  The steal time the kernel reports in /proc/stat over the
  stretch is taken out of its wall time, up to the time the stretch spent
  off the CPU (`unstolen_share`).  CPU times contain no steal.

The loop does what kdvcorr's inner loops do: `fractions.Fraction`
arithmetic, whose time goes to Python-level calls and object allocation,
and dictionary updates.  On the 2-core host of README.md its time follows
the program's slow spells closely; loops of plain integer arithmetic or of
pointer chasing over a large list did not (README.md, "Host speed").  The
collector is off while it runs, so its allocations start no collection
that the program would otherwise have made inside a timed request.
"""
from __future__ import annotations

import gc
import os
import statistics
import time
from fractions import Fraction

# loop time, in ms of CPU time, of the host speed that reported times refer
# to: about the loop's median on the 2-core host of README.md
REFERENCE_MS = 12.0
REPEATS = 5  # the median of five resists a single preemption


def _loop() -> int:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i * i)
    counts: dict = {}
    for i in range(8000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return total.denominator.bit_length() + len(counts)


def loop_ms() -> float:
    """Median CPU time of the reference loop over REPEATS runs, in ms."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.thread_time()
            _loop()
            times.append(1000 * (time.thread_time() - start))
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def factor(before_ms: float, after_ms: float) -> float:
    """Multiplier taking a time measured between two loop probes to the
    reference speed."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)


def smooth(probes: list) -> list:
    """Each probe replaced by the median of itself and its neighbours."""
    return [statistics.median(probes[max(0, i - 1):i + 2]) for i in range(len(probes))]


def stolen_s() -> float:
    """Steal time of all CPUs since boot, in seconds; 0 where the kernel
    does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def unstolen_share(wall_s: float, cpu_s: float, stolen: float) -> float:
    """Share of a stretch's wall time in which it was not held up by steal.
    /proc/stat counts steal on every CPU, busy with the stretch or not, so
    the stretch is charged the steal only up to the time it spent off the
    CPU (wall minus CPU time; none when a pool kept several CPUs busy)."""
    if wall_s <= 0:
        return 1.0
    return 1.0 - min(stolen, max(0.0, wall_s - cpu_s)) / wall_s
