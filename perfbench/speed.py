"""The host's speed, read from a fixed reference kernel timed between requests.

The benchmark runs on a share of a host whose speed swings by up to 1.8x
over spells of seconds to minutes, and a pure-Python loop and a polymin
request slow down together: their ratio spreads about half as much as
either.  A run that lands in a slow spell would read slower for every
metric, and the spread between runs would say more about the host than
the program.

So the measuring process times :func:`kernel`, a fixed piece of work that
never calls polymin, every ``READ_EVERY_S`` seconds between requests.  Each
timed interval (a request or a set-up) is scaled by ``REFERENCE_S`` over
the median kernel time around it: it reads as the time it would take on a
host where the kernel takes ``REFERENCE_S``.  A change to the program moves
the requests and not the kernel, so it shows in full.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# The kernel's median time on a 2-core shared Xeon virtual machine (Python
# 3.11) at its usual speed, so scaled times read close to that host's.
REFERENCE_S = 0.0031
READ_EVERY_S = 0.1  # about 3% of the busy time
# Readings within this many seconds either side of an interval set its
# scale; fewer than MIN_READINGS there, and the nearest MIN_READINGS do.
WINDOW_S = 1.0
MIN_READINGS = 5


def kernel() -> int:
    """Fixed work shaped like polymin's: tuples, dicts, sets and sorting."""
    rng = random.Random(7)
    blocks: dict[tuple[int, int], set[int]] = {}
    for i in range(1200):
        blocks.setdefault((rng.randrange(300), rng.randrange(30)), set()).add(i)
    order = sorted((len(v), k) for k, v in blocks.items())
    return len(order) + len({frozenset(v) for v in blocks.values()})


class HostSpeed:
    """Kernel readings over a run, and the scale they give each interval."""

    def __init__(self):
        self.at: list[float] = []  # midpoints, ascending
        self.took: list[float] = []

    def read(self) -> None:
        # with the collector off, the kernel's time does not depend on how
        # many objects the program keeps alive
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= READ_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_READINGS:
            def distance(i: int) -> float:
                return max(0.0, start - self.at[i], self.at[i] - end)
            lo = max(0, lo - MIN_READINGS)
            near = sorted(range(lo, min(len(self.at), hi + MIN_READINGS)), key=distance)
            took = [self.took[i] for i in near[:MIN_READINGS]]
        else:
            took = self.took[lo:hi]
        return REFERENCE_S / statistics.median(took)
