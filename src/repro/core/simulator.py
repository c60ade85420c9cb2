"""The top-level Refrint simulator.

:class:`RefrintSimulator` assembles one complete simulation point: the cache
hierarchy, the trace-replay cores, the refresh controllers (for eDRAM
configurations) and the energy model, replays every core's trace against
the hierarchy, performs the end-of-run dirty flush, and returns a
:class:`~repro.core.results.SimulationResult`.

Typical use::

    config = SimulationConfig.scaled(retention_us=50.0)
    app = build_application("fft", config)
    result = RefrintSimulator(config).run(app)
    baseline = RefrintSimulator(config.as_sram_baseline()).run(app)
    print(result.normalised_memory_energy(baseline))
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import List, Optional

from repro.config.parameters import SimulationConfig
from repro.core.results import SimulationResult
from repro.cpu.core import Core
from repro.energy.model import ActivitySummary, SystemEnergyModel
from repro.energy.tables import TechnologyTables
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.refresh.controller import build_refresh_controllers
from repro.utils.events import EventQueue
from repro.workloads.suite import ApplicationWorkload

#: Safety valve on the refresh drains to guarantee termination even if a
#: configuration error kept the timers re-arming.
MAX_EVENTS = 200_000_000


@dataclass(frozen=True)
class ReplayStats:
    """Event-loop and protocol traffic of one simulation run.

    Attributes:
        references: data references executed by the cores.
        protocol_calls: access-path protocol invocations: one per data
            reference plus one per real instruction fetch.
        wheel_drains / wheel_skips / wheel_scans: refresh-timer activity of
            the run, read from the :class:`~repro.utils.events.EventQueue`
            (drains run, served timers whose handler found nothing due,
            timers served).  All zero for SRAM runs, which arm no timer.

    :func:`repro.validate.invariants.check_replay_stats` checks the laws
    relating these counts.
    """

    references: int
    protocol_calls: int = 0
    wheel_drains: int = 0
    wheel_skips: int = 0
    wheel_scans: int = 0

    @property
    def slow_references(self) -> int:
        """Data references that walked the protocol: every one of them."""
        return self.references


class RefrintSimulator:
    """Run one configuration point against one application workload.

    ``cache_backend`` selects the cache storage model: "array" (the
    default) or "object", the original one-object-per-line model kept as
    the test oracle (see :class:`~repro.mem.cache.Cache`).
    """

    def __init__(
        self,
        config: SimulationConfig,
        tables: Optional[TechnologyTables] = None,
        cache_backend: str = "array",
    ) -> None:
        self.config = config
        self._tables = tables
        self.cache_backend = cache_backend
        #: Event-loop statistics of the most recent :meth:`run`.
        self.last_replay_stats: Optional[ReplayStats] = None

    def run(self, application: ApplicationWorkload) -> SimulationResult:
        """Simulate the application and return the measured result."""
        architecture = self.config.architecture
        if application.num_threads != architecture.num_cores:
            raise ValueError(
                f"workload has {application.num_threads} threads but the chip "
                f"has {architecture.num_cores} cores"
            )

        hierarchy = CacheHierarchy(architecture, cache_backend=self.cache_backend)
        events = EventQueue()
        cores = [
            Core(core_id, application.traces[core_id], hierarchy)
            for core_id in range(architecture.num_cores)
        ]

        controllers = build_refresh_controllers(hierarchy, self.config, events)
        for controller in controllers:
            controller.start(0)

        self._replay(events, cores)
        self.last_replay_stats = ReplayStats(
            references=sum(core.stats.references_completed for core in cores),
            protocol_calls=hierarchy.protocol_calls,
            wheel_drains=events.drains,
            wheel_skips=events.skips,
            wheel_scans=events.scans,
        )
        # Replay is over, so no timer can fire again.
        events.clear()

        # _replay runs every core to completion, so every finish cycle is
        # set (an empty trace finishes at cycle 0).
        execution_cycles = max(core.stats.finish_cycle for core in cores)
        if self.config.flush_dirty_at_end:
            hierarchy.flush_dirty(execution_cycles)

        busy_core_cycles = sum(core.stats.busy_cycles for core in cores)
        activity = ActivitySummary(
            counters=hierarchy.counters,
            execution_cycles=execution_cycles,
            busy_core_cycles=busy_core_cycles,
        )
        model = SystemEnergyModel(
            architecture=architecture,
            technology=self.config.technology,
            tables=self._tables,
        )
        account = model.account_for(activity)
        return SimulationResult(
            config=self.config,
            application=application.name,
            execution_cycles=execution_cycles,
            busy_core_cycles=busy_core_cycles,
            counters=hierarchy.counters.as_dict(),
            energy=account.breakdown(),
            per_core_finish_cycles=[core.stats.finish_cycle for core in cores],
        )

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _replay(events: EventQueue, cores: List[Core]) -> None:
        """Execute every core's references in global (time, seq) order.

        The pending issue times live in a 16-entry ready list; the event
        queue holds only refresh timers.  Each reference claims a sequence
        number from the queue's counter when its issue time becomes known,
        the counter the queue draws its armed ``(time, seq)`` key from, so
        references and refresh drains interleave in one deterministic
        order: drains keyed before the next reference run first
        (:meth:`~repro.utils.events.EventQueue.run_until_key`), then the
        core executes references back to back up to its *horizon* -- the
        earlier of the next drain and the next other core's issue time.
        """
        # Direct counter access: this loop runs once per data reference and
        # cannot afford wrapper dispatch.
        counter = events._counter
        run_until_key = events.run_until_key
        ready: List = []  # (issue time, seq, core) -- seq unique, so the
        for core in cores:  # core object is never compared.
            issue_time = core.begin(0)
            if issue_time is not None:
                heappush(ready, (issue_time, next(counter), core))
        executed = 0
        while ready:
            time, seq, core = ready[0]
            # Let refresh drains keyed before this reference run first.
            armed = events.armed
            if armed is not None and armed < (time, seq):
                executed += run_until_key(time, seq)
                if executed > MAX_EVENTS:
                    raise RuntimeError(
                        "event limit exceeded; the simulation appears "
                        "to be stuck"
                    )
                armed = events.armed
            # Horizon: the earliest of the next drain and the next reference
            # of any *other* core.  Up to there this core runs free.  A
            # freshly claimed seq always exceeds the armed key's, so
            # comparing times alone is exact.
            horizon = armed[0] if armed is not None else None
            if len(ready) > 1:
                second = ready[1]
                if len(ready) > 2 and ready[2] < second:
                    second = ready[2]
                if horizon is None or second[0] < horizon:
                    horizon = second[0]
            step = core.step
            while True:
                next_time = step(time)
                if next_time is None:
                    heappop(ready)
                    break
                next_seq = next(counter)
                if horizon is not None and next_time >= horizon:
                    heapreplace(ready, (next_time, next_seq, core))
                    break
                time = next_time
