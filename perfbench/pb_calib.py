"""Machine-speed calibration: a fixed reference loop timed between the
program's operations.

On a shared machine the speed of single-threaded Python drifts with
what the neighbours do, by up to 1.9x within a minute and by tens of
percent over half an hour.  CPU time does not remove it: the
processor itself runs slower, so a fixed loop's CPU time equals its
wall time and moves just as much.  The benchmark therefore times this
loop next to the program's work and reports the program's times at
reference speed::

    reported = measured * REFERENCE_NS / calibration_ns

where ``calibration_ns`` is the loop's median time around the
operation: on the thread that did the work (``sample_here``), or on
every CPU in turn for work spread over processes (``sample``).  A change to the program moves ``measured`` and leaves the
loop alone; a slower machine phase moves both.  The loop mixes what
the program's hot paths do (small-object allocation, hashing of
tuples and frozensets, sorting, ``Fraction`` arithmetic), which tracks
the program's slowdowns better than a bare integer loop.  On a shared
2-CPU container, five seeds of serve_exact gave a raw median latency
with an interquartile spread of 33% of its median, and 8% at
reference speed.

The loop uses only the standard library and runs with the garbage
collector paused, so nothing the program sets (imports, collector
thresholds) changes its cost.  Each run's provenance keeps the raw
figures next to the median loop time.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

from fractions import Fraction

#: The loop's time at reference speed.  It only fixes the unit: the
#: loop took 14-25 ms on the 2-CPU container the bounds were set on.
REFERENCE_NS = 20_000_000
#: Loop timings per calibration point: ``sample_here`` takes three,
#: ``sample`` two on each CPU.
HERE_SAMPLES = 3
SAMPLES = 2


def _loop() -> int:
    # Small working sets, rebuilt each round, so the loop adds next to
    # nothing to a process's peak memory.
    out = 0
    rng = random.Random(1)
    for _ in range(6):
        table: dict = {}
        for j in range(2_000):
            key = (j % 97, j // 97, frozenset((j, j + 1)))
            table[key] = table.get(key, 0) + 1
        values = sorted(rng.random() for _ in range(2_500))
        out += len(table) + len(values)
    total = Fraction(0)
    for j in range(1_000):
        total = (total + Fraction(j, 7)) * Fraction(1, 2)
    return out + total.denominator % 7


def measure() -> int:
    """One timing of the reference loop, in ns of this thread's CPU
    time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        _loop()
        return time.thread_time_ns() - start
    finally:
        if enabled:
            gc.enable()


def sample_here(count: int = HERE_SAMPLES) -> list[int]:
    """One calibration point for work done on this thread: ``count``
    timings of the loop wherever the thread runs, as its work does."""
    return [measure() for _ in range(count)]


def sample(count: int = SAMPLES) -> list[int]:
    """One calibration point for work spread over processes: ``count``
    timings of the loop on each CPU this thread may use, in turn.  The
    CPUs of a shared machine slow down independently of each other
    (here one read 13 ms while the other read 21 ms, and half a second
    later the other way round), and a server's threads and processes
    run on any of them."""
    cpus = os.sched_getaffinity(0)
    out = []
    try:
        for _ in range(count):
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                out.append(measure())
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def scale(samples) -> float:
    """Factor from measured to reference-speed time, given the loop
    timings taken around the operation."""
    return REFERENCE_NS / statistics.median(samples)
