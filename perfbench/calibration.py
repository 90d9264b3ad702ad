"""Fixed pure-Python calibration loop: the host-speed reference.

The benchmark host is shared, and its speed for the same code drifts by
up to a third over seconds.  The loop below is fixed code that no change
to the simulator touches.  ``probe()`` times it, and every host-time
metric is rescaled to a host on which the loop takes ``REFERENCE_S``.

On a shared 2-core host, a 4-minute trace of simulation points
interleaved with candidate loops showed that this integer loop tracked
the simulator best: it cut the spread of 8-sample medians of point times
from 0.56-0.70 to 0.23-0.26 of their median.  Loops over dict-based
cache sets, with small or multi-megabyte working sets, tracked it worse.
"""

from __future__ import annotations

import statistics
import time

#: Loop time of the reference host, in seconds.
REFERENCE_S = 0.010
ITERATIONS = 100_000
REPEATS = 3


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def probe() -> float:
    """Median of ``REPEATS`` timings of the loop, in seconds."""
    return statistics.median(_loop() for _ in range(REPEATS))
