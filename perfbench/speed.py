"""Machine-speed probe: scales measured times to a reference speed.

On a shared machine the same code runs up to ~2x slower for seconds or
minutes at a time while neighbours compete for the processor. The
benchmark times this fixed, program-independent probe right before and
right after every timed stretch, in the same process, and multiplies
the stretch's time by ``(REFERENCE_PROBE_S / probe time) **
SLOWDOWN_EXPONENT``: the time then reads as it would on a machine where
the probe takes :data:`REFERENCE_PROBE_S`.

Timed this way on a shared 2-vCPU Xeon virtual machine, a fleet
request's slowdown tracked the probe's within a slow spell (correlation
0.8); across ten runs per workload that spanned
quiet and slow spells, the median request time went as the 1.3rd to
1.7th power of the probe time, hence :data:`SLOWDOWN_EXPONENT`. A probe
timed in another process tracks nothing, as the two processes may sit
on different processors. Nothing in the probe depends on the program,
so a change to the program moves the scaled times exactly as it moves
the raw ones.
"""

from __future__ import annotations

import time

#: Probe time on the reference machine, in seconds.
REFERENCE_PROBE_S = 0.0013
#: How much more than the probe the measured work slows down (log-log).
SLOWDOWN_EXPONENT = 1.5


def _arithmetic() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def probe() -> float:
    """The faster of two timed passes of the probe, in seconds."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _arithmetic()
        times.append(time.perf_counter() - start)
    return min(times)


def timed(fn):
    """``(fn(), scaled seconds, raw seconds)`` for one call of ``fn``."""
    before = probe()
    start = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - start
    after = probe()
    speed = REFERENCE_PROBE_S / ((before + after) / 2)
    return value, elapsed * speed**SLOWDOWN_EXPONENT, elapsed
