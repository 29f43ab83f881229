"""A fixed calibration loop that measures the host's current speed.

On a shared host the CPU time of the same simulation point moves by
±15% from second to second and drifts by up to 30% over minutes, as other
tenants load the machine.  The benchmark therefore times this loop right
after every point and reports the point's times scaled by
``REFERENCE_S / loop time``: host seconds at the speed of the host the
benchmark was tuned on, where the loop takes ``REFERENCE_S``.  Across
40-second windows this cut the range of the median point time from 0.14
to 0.05 of its value.

The loop is a small discrete-event kernel of its own (a heap of pending
events, generator processes, ``__slots__`` objects, dict updates), so
contention slows it the way it slows the simulator.  It imports nothing
from the program under test, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import time

# CPU seconds ``calibration_seconds`` takes on the 2-core x86 host the
# benchmark was tuned on (median over 300 s of interleaved runs).
REFERENCE_S = 0.095
_STEPS = 40_000
_WORKERS = 64


class _Event:
    __slots__ = ("time", "proc", "value", "done")

    def __init__(self, time_ns: int, proc, value) -> None:
        self.time = time_ns
        self.proc = proc
        self.value = value
        self.done = False

    def fire(self) -> int:
        self.done = True
        return self.proc.send(self.value)


def _loop() -> dict:
    heap: list = []
    seq = 0
    tally: dict = {}

    def worker(k: int):
        x = k + 1
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = ("w", k & 7)
            tally[key] = tally.get(key, 0) + 1
            yield (x % 900) + 100

    for k in range(_WORKERS):
        proc = worker(k)
        seq += 1
        heapq.heappush(heap, (next(proc), seq, _Event(0, proc, None)))
    for _ in range(_STEPS):
        now, _, event = heapq.heappop(heap)
        delay = event.fire()
        seq += 1
        heapq.heappush(heap, (now + delay, seq,
                              _Event(now + delay, event.proc, now)))
    return tally


def calibration_seconds() -> float:
    """CPU seconds the calibration loop takes now."""
    start = time.process_time()
    _loop()
    return time.process_time() - start
