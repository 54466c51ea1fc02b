"""Machine-speed probe: a fixed piece of pure-Python work, timed before
the first operation of a pass and after every one, by which every reported
time is scaled to a machine of reference speed.

On a shared virtual machine the speed of a CPU drifts for minutes at a time
(other guests use the same cores), and CPU time drifts with it: the same
decodes took 9% longer in one process than in another. The probe does the
kind of work the program does (dict updates with tuple keys, a heap, float
arithmetic, string formatting) but never touches aslmt, so a change in the
program cannot move it. An operation's time divided by the mean time of
the probes just before and after it is what the operation costs in probe
units; times ``REFERENCE_S`` it is again in seconds, as on a machine where
one probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import statistics

from tracer import clock

# CPU time of one probe on the reference machine (a quiet moment of a
# 2-core Intel Xeon virtual machine, Python 3.11).
REFERENCE_S = 0.010
# Probes a set-up process runs after its set-up; the first ones are slower.
SETUP_PROBES = 15


def _work(n: int = 6000) -> float:
    table: dict = {}
    heap: list = []
    total = 0.0
    for i in range(n):
        key = (i % 97, "w%d" % (i % 31))
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (-(i * 7919 % 1009), key))
        if len(heap) > 50:
            heapq.heappop(heap)
        total += table[key] ** 0.5
    return total


def probe() -> float:
    """CPU time of one probe, in seconds. The garbage collector is off
    meanwhile: a collection of the program's heap would land in the probe
    whenever the program's allocations happen to trigger one there."""
    gc.disable()
    try:
        start = clock()
        _work()
        return clock() - start
    finally:
        gc.enable()


def op_scales(probes: list[float]) -> list[float]:
    """Per operation of a pass, the factor that turns its CPU time into
    reference-machine seconds: from the mean of the probes just before and
    just after it, so that each operation is scaled by the speed of the
    machine while it ran. ``probes`` has one more entry than the pass has
    operations."""
    return [2 * REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]


def setup_scale() -> float:
    """Scale for a set-up process, from the median of its last probes."""
    times = [probe() for _ in range(SETUP_PROBES)]
    return REFERENCE_S / statistics.median(times[SETUP_PROBES // 3 :])
