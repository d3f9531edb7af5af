"""Wall time corrected for the drifting speed of the shared host.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.5 times for minutes at a time, and that drift, not the program, decided
how far apart runs of the same code came out.  ``HostClock`` times a fixed
probe before and after each timed interval and corrects the interval by it:

    corrected = wall * (PROBE_REF_S / mean(probe before, probe after)) ** HOST_EXPONENT

The probe is random reads from a 4 MiB buffer and uses none of the program,
so a change to the program cannot move it.  It swings more than the program
does: on the reference machine (2-core x86-64 VM, CPython 3.11) its median
over a run went from 1.9 to 4.6 ms while the same work took up to 1.5 times
as long.  Over five runs of each workload, the three timings spread least
with the square root of the probe's ratio (0.05 to 0.19 of their median,
against 0.07 to 0.40 uncorrected and 0.09 to 0.50 with the full ratio),
hence ``HOST_EXPONENT``.  Over ten further runs of each workload the
corrected timings spread 0.04 to 0.11 and the uncorrected ones 0.10 to
0.28.  ``run.py`` prints the uncorrected figures alongside.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

PROBE_BYTES = 4 << 20
PROBE_READS = 10_000
PROBE_REPEATS = 3
# The probe's median time on the reference machine: corrected figures read
# as seconds on that machine at its usual speed.
PROBE_REF_S = 0.0036
HOST_EXPONENT = 0.5


class HostClock:
    """Corrects timed intervals by the probe timed around each of them."""

    def __init__(self) -> None:
        self._buf = random.Random(0).randbytes(PROBE_BYTES)
        self.readings: list[float] = []
        self._last = self.probe()

    def probe(self) -> float:
        """Seconds the probe takes now: the median of ``PROBE_REPEATS`` timings."""
        buf, n, times = self._buf, len(self._buf), []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            i, s = 1, 0
            for _ in range(PROBE_READS):
                i = (i * 1103515245 + 12345) & 0x7FFFFFFF
                s += buf[i % n]
            times.append(perf_counter() - start)
        t = statistics.median(times)
        self.readings.append(t)
        return t

    def scale(self, wall_s: float) -> float:
        """``wall_s``, just timed, corrected to the host's reference speed."""
        now = self.probe()
        corrected = wall_s * (PROBE_REF_S / ((self._last + now) / 2)) ** HOST_EXPONENT
        self._last = now
        return corrected
