"""Speed probe: scales measured times to a fixed reference speed of the core.

On the shared cores this benchmark runs on, the speed of one process
shifts between modes about 1.4x apart, at every time scale from
milliseconds to minutes, and its CPU time shifts with its wall time.
Timing more work only averages the modes a run happened to get, so two
runs of the same code can differ by a quarter.

While a ``SpeedProbe`` is active, a timer signal every ``INTERVAL_S``
interrupts the measured code and times one call of a fixed table-lookup
loop on the same thread. The probe's time at that moment stands for the
program's speed. A region of T seconds with probes p_1..p_k inside it is
reported as

    (T - sum(p_i)) * mean(REFERENCE_PROBE_S / p_i)

the time the region would have taken if every probe had taken
``REFERENCE_PROBE_S``. Probes are uniform in time, so the mean of the
inverse probe times is the time average of the speed over the region.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.02
# About one probe call on an uncontended core of the 2-vCPU x86-64 VM the
# figures in DESIGN.md were taken on; it only fixes the scale of the
# reported times.
REFERENCE_PROBE_S = 60e-6

_TABLE = [[(i * j) % 31 for j in range(31)] for i in range(31)]


def probe_work() -> int:
    """The fixed work a probe times: 961 lookups in a 31x31 table."""
    t, total = _TABLE, 0
    for i in range(31):
        row = t[i]
        for j in range(31):
            total += t[row[j]][j]
    return total


class SpeedProbe:
    """Samples the speed of the core while active (a context manager)."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        probe_work()
        self.times.append(perf_counter() - started)
        self.starts.append(started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, regions) -> float:
        """Reference-speed time of the ``(start, end)`` regions, which are
        in time order and do not overlap."""
        starts, times = self.starts[:], self.times[:len(self.starts)]
        elapsed = probe_total = 0.0
        inverse = []
        for start, end in regions:
            elapsed += end - start
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_left(starts, end)
            probe_total += sum(times[lo:hi])
            inverse += (REFERENCE_PROBE_S / p for p in times[lo:hi])
        if not inverse:
            raise ValueError("no speed probe fell inside the measured regions")
        return (elapsed - probe_total) * sum(inverse) / len(inverse)
