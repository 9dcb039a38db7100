"""A fixed reference computation that tracks the host's speed.

The benchmark's host shares its cores with other tenants, and its speed
changes by up to 2x for minutes at a time (README, "Noise").  Wall times
taken in a slow stretch and in a fast one differ by more than any
change worth measuring.  So the run times a fixed reference computation
between its instances, about every CALIBRATE_EVERY_S of timed work, and
scales each instance's wall time by REFERENCE_S over the reference's
time around that instance.  The metrics then read as the times the
same work takes on a host where the reference takes REFERENCE_S: the
benchmark machine in a fast stretch.

The reference evaluates the exact tables and supported models of
fifteen fixed 5-atom logic programs with `reference.py`: pure-Python
work on dicts, sets, tuples and strings, like genaft's, which slows by
the same factor in a slow stretch.  It shares no code with genaft, so a
change to the library cannot change it, and the garbage collector is
off while it runs, so that the heap the instances leave behind cannot
slow it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

from inputs import random_program
from reference import fixpoints, lp_table

# The reference's time on the 2-vCPU development machine (README, "Noise")
# in a fast stretch.
REFERENCE_S = 1.25e-3

# Timed work between two timings of the reference.
CALIBRATE_EVERY_S = 0.1

# A timing of the reference is the least of this many back-to-back runs:
# the first may find the caches cold after an instance.
REPEATS = 2

# An instance's speed is the median of this many timings of the
# reference on each side of it.
WINDOW = 3

_rng = random.Random(0)
_PROGRAMS = [random_program(("a", "b", "c", "d", "e"), _rng) for _ in range(15)]


def reference_time() -> float:
    """Seconds the reference computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            for program in _PROGRAMS:
                fixpoints(lp_table(program))
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(times: list[float], refs: list[tuple[int, float]], window: int = WINDOW) -> list[float]:
    """`times` at reference speed.  `refs` holds (position, seconds): a
    timing of the reference taken when `position` of the times had been
    taken, so before times[position].  A time is scaled by the median of
    the `window` timings on each side of it."""
    positions = [p for p, _ in refs]
    seconds = [s for _, s in refs]
    out = []
    for k, t in enumerate(times):
        i = bisect.bisect_right(positions, k)
        out.append(t * REFERENCE_S / statistics.median(seconds[max(0, i - window) : i + window]))
    return out


def speed(refs: list[tuple[int, float]]) -> list[float]:
    """Quartiles of the host's speed over a run, relative to the speed at
    which the reference takes REFERENCE_S."""
    return statistics.quantiles([REFERENCE_S / s for _, s in refs], n=4)
