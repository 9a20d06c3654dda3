"""Machine-speed reference for steady timings on a shared host.

On a host shared with other tenants the same job can run 20-40 % slower
for seconds or minutes at a time.  Every timing the benchmark reports
is therefore rescaled to a fixed machine speed: a fixed pure-Python
reference kernel (dict updates, integer and big-integer arithmetic,
list building, the operations homred's counting loops consist of) is
timed after each measurement, and

    reported = measured wall time * REFERENCE_S / recent kernel time,

where the recent kernel time is the median of the last few references
(see Clock).  REFERENCE_S is a constant, so reported values are comparable across
runs and commits; on a quiet machine where the kernel takes
REFERENCE_S they equal the raw wall time.  The raw wall times are kept
in the run's detail line.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

REFERENCE_S = 0.007  # nominal kernel time: its quiet-host time on a 2-vCPU Xeon VM, Python 3.11
_BIG = 3**700


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(24000):
        key = i % 61
        table[key] = table.get(key, 0) + i * 7
        acc += (i * i) % 13
    x = _BIG
    for _ in range(120):
        x = (x * _BIG) % (_BIG + 12345)
    rows = [[j * k for j in range(20)] for k in range(200)]
    return acc + len(table) + x % 7 + len(rows)


def reference() -> float:
    """Median of three timed kernel runs, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return median(times)


class Clock:
    """Times a sequence of calls, each followed by a reference run.

    A call's time is rescaled by the median of the last WINDOW + 1
    references (the one taken right after it included): one reference
    taken next to a process exit or a cache flush can read 2x slow, and
    the median over a few seconds still follows slower and faster spells
    of the host.
    """

    WINDOW = 4

    def __init__(self):
        self._refs = [reference()]

    def measure(self, fn):
        """Run ``fn()``; returns (result or raised exception, wall s, scaled s)."""
        t0 = perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # the caller decides what a failure means
            outcome = exc
        wall = perf_counter() - t0
        self._refs.append(reference())
        scaled = wall * REFERENCE_S / median(self._refs[-(self.WINDOW + 1):])
        return outcome, wall, scaled
