"""The machine's pace, to take shared-machine drift out of the timings.

On a shared machine the same work takes 20-30% longer in some stretches
than in others, for tens of seconds at a time, so two runs of identical
work can disagree by that much. Between applications the benchmark times
a fixed probe: pure Python that allocates frozen slotted dataclasses,
walks them recursively and hashes them into a dict, as the library does,
but calls no certforge code. Each timing is then scaled by REF_S over the
median of the probes nearest it in time. The result reads as seconds on a
machine where the probe takes REF_S, and a change to certforge moves it as
much as it moves the raw time.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

REF_S = 0.002       # probe duration the timings are scaled to
INTERVAL_S = 0.05   # least time between two probes
NEAREST = 9         # probes whose median gives the pace at one moment


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return ("v", i % 5)
    return _Node("and" if i % 2 else "or", _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


def _atoms(t) -> frozenset:
    if isinstance(t, _Node):
        return _atoms(t.left) | _atoms(t.right)
    return frozenset((t,))


def _probe_work() -> int:
    seen = {}
    for i in range(12):
        t = _tree(6, i)
        seen[t] = _atoms(t)
    return len(seen)


class Pace:
    """Probe timings, in the order they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Probe, unless the last probe is more recent than INTERVAL_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.probe()

    def scale(self, t: float) -> float:
        """Factor that turns a duration measured at time t into REF_S units."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REF_S / statistics.median(self.took[lo:lo + NEAREST])

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        """(start, duration) pairs as scaled durations."""
        return [d * self.scale(t) for t, d in samples]
