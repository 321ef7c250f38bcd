"""Host-speed probe, so timings compare across minutes on a shared host.

On a shared virtual machine the speed of the vCPU drifts: the same pass can
take 1.5x as long a minute later, for the whole length of a run, which no
amount of repetition inside the run averages away.  ``SpeedProbe`` samples
that speed all through the timed work: a timer signal interrupts the work
every ``INTERVAL_S`` and runs ``probe_chunk``, a fixed piece of pure-Python
work that shares no code with hyperspin and allocates no tracked objects
(so it does not depend on the program's heap or garbage collector).

A timed region then yields its work time (wall time minus the probe's own
time) and its *reference time*: the work time scaled by
``REFERENCE_PROBE_S / mean probe time``, i.e. what the work would have
taken at the probe speed this host shows when it is quiet.  Set-up is too
short, and too busy with imports, to be sampled on the timer; ``sample``
probes a burst just before and just after it instead.  A change that
makes hyperspin slower makes the reference time longer in proportion; a
host that slows down slows the probe with it, and the reference time stays.
One blind spot: the probe's few kilobytes of tables can be evicted by the
work around it, so a change that only adds cache pressure reads slightly
smaller in reference time than in wall time (the info line keeps both).
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# probe_chunk's time on an uncontended vCPU of the host the bounds were set
# on (Intel Xeon, Python 3.11): the low end of its run-to-run distribution.
REFERENCE_PROBE_S = 0.00055

_TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]
_MAP = {i: (i * 40503) & 0xFFFF for i in range(256)}


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v


_CELLS = [_Cell(i) for i in range(64)]


def probe_chunk(rounds: int = 4000) -> int:
    x = 0
    table, mapping, cells = _TABLE, _MAP, _CELLS
    for i in range(rounds):
        x = (x + table[(x ^ i) & 255] + mapping[i & 255] + cells[i & 63].v) & 0xFFFF
    return x


class SpeedProbe:
    """Samples host speed on a timer while active (a context manager)."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.sample(1)

    def sample(self, times: int) -> None:
        for _ in range(times):
            started = time.perf_counter()
            probe_chunk()
            self.total_s += time.perf_counter() - started
            self.count += 1

    def reference(self, work_s: float, probe_s: float, probes: int) -> float:
        """``work_s`` scaled to the quiet host, by the mean of the given
        probes, or of all probes so far when none fell in the region."""
        if not probes:
            probe_s, probes = self.total_s, self.count
        return work_s * REFERENCE_PROBE_S * probes / probe_s

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.total_s, self.count

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(work seconds, reference seconds) of the region begun at ``mark``."""
        started, total0, count0 = mark
        probe_s, probes = self.total_s - total0, self.count - count0
        work = time.perf_counter() - started - probe_s
        if not probes and not self.count:
            self.sample(1)  # too short to be sampled on the timer
        return work, self.reference(work, probe_s, probes)


class _NoProbe:
    """Stands in for a SpeedProbe where nothing is probed (traced runs)."""

    total_s = 0.0


NO_PROBE = _NoProbe()
