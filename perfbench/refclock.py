"""Host time scaled to a nominal machine speed.

The CPU this benchmark runs on changes speed in regimes (a shared core, a
busy sibling thread): a fixed pure-Python loop takes 8 ms for a while, then
12 ms, then 8 ms again.  Raw host-time figures therefore do not repeat.
:class:`RefClock` times a fixed reference loop -- no repository code in it
-- before and after every timed interval, and scales the interval by
``NOMINAL_REF_S / measured``: on a machine as fast as the nominal one the
scaled figure equals the raw one, on a slower stretch it is shrunk by the
slowdown the reference loop saw.
"""

from __future__ import annotations

import heapq
import time

#: the reference loop's time on the nominal machine (the fast regime of
#: the 2-core host the reference figures in README.md come from)
NOMINAL_REF_S = 0.005

#: repetitions per reference measurement; the fastest one is kept
_REPS = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _counter(limit):
    count = 0
    while count < limit:
        step = yield count
        count += 1 if step is None else step


def reference_loop() -> int:
    """A fixed mix of what the simulator spends its time on: small object
    allocation, attribute access, dict updates, a heap, generator resumption
    and a sort.  Returns a checksum so nothing is optimised away."""
    queue = []
    table = {}
    total = 0
    for i in range(2000):
        item = _Item(i * 7 % 13, i)
        heapq.heappush(queue, (item.key, i, item))
        table[i % 257] = item
        if len(queue) > 64:
            total += heapq.heappop(queue)[2].value
    for value in _counter(6000):
        total += value
    for i in range(12000):
        total += i * i % 7
        table[i & 1023] = total
    keys = [(i * 7919) % 1000 for i in range(2000)]
    keys.sort()
    return total + keys[-1]


def measure_reference() -> float:
    """Seconds the reference loop takes now (fastest of a few runs)."""
    best = float("inf")
    for _ in range(_REPS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


class RefClock:
    """Scales raw intervals by the reference loop measured around them.

    Usage::

        clock = RefClock()
        before = clock.last
        ...timed work, raw seconds measured by the caller...
        factor = clock.factor_since(before)   # measures the loop again
        scaled = raw * factor
    """

    def __init__(self) -> None:
        self.last = measure_reference()
        self.samples = [self.last]

    def refresh(self) -> float:
        """Measure the reference loop now (between two timed intervals)."""
        self.last = measure_reference()
        self.samples.append(self.last)
        return self.last

    def factor_since(self, before: float) -> float:
        """``NOMINAL_REF_S`` over the mean of ``before`` and a fresh
        measurement: the scale for an interval that ran between the two."""
        return NOMINAL_REF_S / ((before + self.refresh()) / 2.0)
