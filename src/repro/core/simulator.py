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

#: Safety valve on the refresh drains, in queue events, to guarantee
#: termination even if a configuration error kept the timers re-arming.
MAX_EVENTS = 200_000_000


@dataclass(frozen=True)
class ReplayStats:
    """Event-loop and protocol traffic of one simulation run.

    Attributes:
        events_popped: events executed through the queue's heap.  The
            refresh wheel is the queue's only producer, so this equals
            ``wheel_drains``.
        references: data references executed by the cores.
        protocol_calls: access-path protocol invocations: one per data
            reference plus one per real instruction fetch.
        wheel_drains / wheel_skips / wheel_scans: refresh-wheel activity of
            the run (queue events fired, served entries whose handler found
            nothing due, entries served).  All zero for SRAM runs, which
            build no wheel.

    :func:`repro.validate.invariants.check_replay_stats` checks the laws
    relating these counts.
    """

    events_popped: int
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
        wheel = hierarchy.refresh_wheel
        self.last_replay_stats = ReplayStats(
            events_popped=events.popped_events,
            references=sum(core.stats.references_completed for core in cores),
            protocol_calls=hierarchy.protocol_calls,
            wheel_drains=wheel.drains if wheel is not None else 0,
            wheel_skips=wheel.skips if wheel is not None else 0,
            wheel_scans=wheel.scans if wheel is not None else 0,
        )
        if wheel is not None:
            # Replay is over, so no timer can fire again.
            wheel.clear()

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

        The pending issue times live in a 16-entry ready list rather than
        on the event queue, whose only producer is the refresh wheel.  Each
        reference claims a sequence number from the queue's shared counter
        when its issue time becomes known, so references and refresh drains
        interleave in one deterministic order: drains ordered before the
        next reference run first (:meth:`~repro.utils.events.EventQueue.run_until_key`),
        then the core executes references back to back up to its
        *horizon* -- the earlier of the next queue event and the next other
        core's issue time.
        """
        # Direct heap / counter access: this loop runs once per data
        # reference and cannot afford wrapper dispatch.
        heap = events._heap
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
            # Let refresh drains ordered before this reference fire first.
            # (A cancelled entry at the top is handled the same as a live
            # one here: treating its key as a horizon just ends the batch
            # early, and run_until_key discards it on the next pass.)
            if heap:
                head = heap[0]
                if head[0] < time or (head[0] == time and head[1] < seq):
                    executed += run_until_key(time, seq)
                    if executed > MAX_EVENTS:
                        raise RuntimeError(
                            "event limit exceeded; the simulation appears "
                            "to be stuck"
                        )
            # Horizon: the earliest of the next queue event and the next
            # reference of any *other* core.  Up to there this core runs
            # free.  A freshly claimed seq always exceeds the horizon
            # entry's, so comparing times alone is exact.
            horizon = heap[0][0] if heap else None
            if len(ready) > 1:
                second = ready[1]
                if len(ready) > 2 and ready[2] < second:
                    second = ready[2]
                if horizon is None or second[0] < horizon:
                    horizon = second[0]
            # The clock only needs to be current when queue callbacks run,
            # and none run inside the batch; one forward store per batch
            # suffices (run_until_key above never leaves _now past `time`).
            events._now = time
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
