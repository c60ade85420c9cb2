"""The host probe: how fast a shared host runs a fixed piece of work.

On a shared host the same work takes longer while other tenants load the
machine.  A child process under test runs :class:`HostProbe` from a SIGALRM
timer; the probe's mean time over an interval measures the slowdown at the
moments the program ran, and :func:`bench_stats.at_nominal_speed` reads the
interval's seconds at the probe's nominal speed instead.

A mark is ``[wall, CPU, probes run, probe seconds]``: ``time.monotonic()``
and ``time.process_time()`` net of the probes' own time, then how many
probes had run and how long they took in all.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: The probe fires this often (wall seconds) and runs this many loop steps,
#: about 0.5 ms on a 2 GHz Xeon vCPU: ~1% of the program's time.
PROBE_INTERVAL_S = 0.05
PROBE_STEPS = 4000
#: Nominal time of one probe: about its mean inside a sweep on a 2 GHz Xeon
#: vCPU with Python 3.11.  Calibrated times are read at this host speed.
PROBE_NOMINAL_S = 0.0005


def spawn_mark(spawned: float) -> List[float]:
    """The mark of a child's spawn, taken by the parent: no probe had run."""
    return [spawned, 0.0, 0, 0.0]


def probe_loop(steps: int = PROBE_STEPS) -> None:
    """A fixed piece of interpreter work: dict reads and writes of int values.

    It allocates one dict and no other object the garbage collector tracks,
    so its cost does not depend on the program around it.
    """
    counts = {}
    for step in range(steps):
        key = step % 97
        counts[key] = counts.get(key, 0) + step


class HostProbe:
    """Runs :func:`probe_loop` now and then on a timer; counts and times it."""

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self, *_signal) -> None:
        wall, cpu = time.monotonic(), time.process_time()
        probe_loop()
        self.count += 1
        self.wall += time.monotonic() - wall
        self.cpu += time.process_time() - cpu

    def start(self) -> None:
        """Probe now, then every ``PROBE_INTERVAL_S``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> List[float]:
        return [
            time.monotonic() - self.wall, time.process_time() - self.cpu,
            self.count, self.wall,
        ]
