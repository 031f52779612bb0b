"""A sampling gauge of how fast the host runs while a workload runs.

On a shared host the same code runs up to twice as fast or as slow within
seconds: in a tight loop `unit()` takes either about 27 or about 47 us, the
mix of the two changes many times a second, and each CPU drifts on its own.
Wall times of whole runs then spread far more than any bound a benchmark
could defend. So the worker interrupts itself every `PERIOD_S` seconds of
process CPU time (SIGPROF) and times `unit()`, a fixed piece of pure-Python
work, on the same CPU at that moment. The mean unit time over a phase
measures how slow the host was during exactly that phase, and `run.py`
reports the phase's time as

    (wall time - time spent in probes) * NOMINAL_S / mean unit time

that is, in seconds of a host on which one unit, timed inside the handler,
takes `NOMINAL_S` (about the mean seen on the development host, so reported
times read close to wall times). Probes cost under 1 % of the run. The gauge
never imports `arahate`, so a change to the program cannot change the
yardstick.
"""

from __future__ import annotations

import signal
import statistics
import zlib
from time import perf_counter

PERIOD_S = 0.01
NOMINAL_S = 50e-6
_KEYS = [b"probe-%03d" % i for i in range(300)]


def unit() -> int:
    checksum = 0
    for key in _KEYS:
        checksum ^= zlib.crc32(key)
    return checksum


class Probe:
    """Times `unit()` from a SIGPROF handler; `phase()` returns and resets the tally."""

    def __init__(self) -> None:
        self.timings: list[float] = []

    def _on_signal(self, signum, frame) -> None:
        start = perf_counter()
        unit()
        self.timings.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def phase(self) -> dict:
        """Number, total and mean of the unit timings since the last call."""
        timings, self.timings = self.timings, []
        return {
            "probes": len(timings),
            "probe_s": sum(timings),
            "unit_s": statistics.fmean(timings) if timings else None,
        }


def normalized(wall_s: float, phase: dict) -> float:
    """A phase's own time (probes excluded) in seconds of a nominal-speed host."""
    own = wall_s - phase["probe_s"]
    return own if phase["unit_s"] is None else own * NOMINAL_S / phase["unit_s"]
