"""Host speed probe: a fixed pure-Python kernel timed between ops.

The host is shared, and its speed changes by up to a factor of two for
seconds to minutes at a time (README.md, "Host speed"). A wall-clock time
taken in a slow phase is then not comparable with one taken in a fast
phase. So the benchmark times this kernel between ops and scales each op's
latency by how fast the kernel ran around it::

    normalized = latency * REF_S / probe time

``REF_S`` is a constant, the kernel's time in a fast phase of the 2-core
sandbox where the benchmark was written, so normalized figures read as
seconds on that host when it runs fast. The kernel uses no cdposet code: a
change to the library moves the normalized figures by exactly as much as it
moves the wall-clock ones.
"""

from __future__ import annotations

import statistics
import time

# seconds the kernel takes in a fast phase of the reference host
REF_S = 0.0009
REPEATS = 3  # a probe is the median of this many timings of the kernel


def kernel() -> int:
    """Tuple-keyed dicts, frozensets and a sort: the kind of work cdposet does."""
    table = {}
    for i in range(1000):
        table[(i % 37, i // 37)] = frozenset((i, i >> 1, i >> 2))
    total = 0
    for (a, b), cell in table.items():
        mirror = table.get((b, a))
        if mirror is not None:
            total += len(cell | mirror)
    return total + len(sorted(table, key=lambda k: (k[1], k[0])))


def probe() -> float:
    """Seconds the kernel takes now: the median of ``REPEATS`` timings."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Normalizer:
    """Probes taken between timed sections, and the scale each section gets.

    ``mark`` is called before a section; it probes when ``every`` seconds
    have passed since the last probe (or none was taken yet) and returns the
    index of the probe that precedes the section. ``close`` takes a final
    probe. A section's scale is ``REF_S`` over the mean of the probe before
    it and the probe after it.
    """

    def __init__(self, every: float = 0.0) -> None:
        self.every = every
        self.probes: list[float] = []
        self._last = -float("inf")

    def mark(self) -> int:
        now = time.perf_counter()
        if now - self._last >= self.every:
            self.probes.append(probe())
            self._last = time.perf_counter()
        return len(self.probes) - 1

    def close(self) -> None:
        self.probes.append(probe())

    def scale(self, before: int) -> float:
        return REF_S / ((self.probes[before] + self.probes[before + 1]) / 2)
