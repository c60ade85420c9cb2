"""Refresh controller base class and construction helpers.

A refresh controller is attached to one physical cache array (one private
cache or one L3 bank).  It owns the *timing* side of refresh -- when lines
are considered for refresh -- and delegates the *data* side to a
:class:`~repro.refresh.policies.DataPolicy`.  Its actions go through the
hierarchy's policy entry points so that write-backs, inclusion
back-invalidations and DRAM traffic are accounted exactly like those caused
by normal execution.

Two concrete controllers exist:

* :class:`~repro.refresh.periodic.PeriodicRefreshController` -- the naive
  baseline: every refresh group is walked once per retention period,
  staggered across the period, blocking the array while it is walked;
* :class:`~repro.refresh.refrint.RefrintRefreshController` -- the paper's
  proposal: per-line Sentry bits interrupt the controller just before a line
  decays, so lines are refreshed only when they truly need it.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from typing import Dict, List, Optional

from repro.config.parameters import RefreshConfig, SimulationConfig, TimingPolicyKind
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem.cache import Cache
from repro.mem.line import CacheLine
from repro.refresh.policies import (
    AllPolicy,
    DataPolicy,
    DirtyPolicy,
    PolicyAction,
    ValidPolicy,
    WritebackPolicy,
    make_data_policy,
)
from repro.utils.events import EventQueue
from repro.utils.statistics import Counter
from repro.utils.wheel import RefreshWheel


class RefreshController(abc.ABC):
    """Common machinery for the periodic and Refrint controllers.

    Refresh timers (periodic group passes, lazy sentry interrupts) are
    scheduled through a :class:`~repro.utils.wheel.RefreshWheel` rather than
    as individual heap events.  :func:`build_refresh_controllers` hands
    every controller of a simulation the same wheel so their timers drain
    from one queue event per deadline; a controller constructed standalone
    (unit tests, external tooling) builds a private wheel on its queue.
    """

    def __init__(
        self,
        level: str,
        instance: int,
        cache: Cache,
        policy: DataPolicy,
        refresh_config: RefreshConfig,
        hierarchy: CacheHierarchy,
        event_queue: EventQueue,
        counters: Optional[Counter] = None,
        wheel: Optional[RefreshWheel] = None,
    ) -> None:
        self.level = level
        self.instance = instance
        self.cache = cache
        self.policy = policy
        self.config = refresh_config
        self.hierarchy = hierarchy
        self.events = event_queue
        self.wheel = wheel if wheel is not None else RefreshWheel(event_queue)
        self.counters = counters if counters is not None else hierarchy.counters
        # Counter keys and per-line costs are resolved once, and the hot
        # handlers increment the raw counter dict directly; the refresh
        # path runs tens of thousands of times per simulation.
        self._refresh_cycles_per_line = refresh_config.refresh_cycles_per_line
        self._raw_counts = self.counters.raw
        self._refresh_counter = f"{level}_refreshes"
        self._writeback_counter = f"{level}_policy_writebacks_total"
        self._invalidate_counter = f"{level}_policy_invalidations_total"
        self._setup_policy_dispatch()

    def _setup_policy_dispatch(self) -> None:
        """Classify the data policy for the staged per-line fast path.

        On the array backend, the overwhelmingly common refresh decision
        (REFRESH under Valid/All, a Count decrement under WB(n, m)) is pure
        index arithmetic; only write-backs and invalidations go through the
        line views and the hierarchy entry points.  Exact types only: a
        subclassed policy falls back to the generic per-line walk.
        """
        policy_type = type(self.policy)
        if policy_type is AllPolicy:
            self._policy_kind = "all"
        elif policy_type is ValidPolicy:
            self._policy_kind = "valid"
        elif policy_type is DirtyPolicy:
            self._policy_kind = "dirty"
        elif policy_type is WritebackPolicy:
            self._policy_kind = "wb"
            self._dirty_budget = self.policy.dirty_refreshes
            self._clean_budget = self.policy.clean_refreshes
        else:
            self._policy_kind = "custom"

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def start(self, cycle: int) -> None:
        """Schedule this controller's first event(s) at or after ``cycle``."""

    # -- shared action machinery ---------------------------------------------

    def apply_policy(self, set_idx: int, line: CacheLine, cycle: int) -> PolicyAction:
        """Ask the data policy about one line and carry out its verdict.

        Returns the action taken, so the timing controllers can decide how
        many controller cycles the pass consumed and whether the line still
        needs a future refresh event.
        """
        decision = self.policy.decide(line)
        action = decision.action
        if action is PolicyAction.REFRESH:
            self._refresh_line(line, cycle)
        elif action is PolicyAction.WRITEBACK:
            self.hierarchy.policy_writeback(
                self.level, self.instance, set_idx, line, cycle
            )
            self.counters.add(self._writeback_counter)
        elif action is PolicyAction.INVALIDATE:
            self.hierarchy.policy_invalidate(
                self.level, self.instance, set_idx, line, cycle
            )
            self.counters.add(self._invalidate_counter)
        else:
            # SKIP: nothing holds useful data here.  Advance the refresh
            # timestamp anyway so lazy sentry timers do not keep finding the
            # same (invalid) line "due" on every pass.
            line.last_refresh_cycle = cycle
        if decision.new_count is not None:
            line.refresh_count = decision.new_count
        return action

    def process_indices(self, indices: List[int], cycle: int) -> int:
        """Apply the data policy to the lines at ``indices`` (all due).

        The staged equivalent of calling :meth:`apply_policy` per line:
        refresh decisions run as index arithmetic on the state vectors, and
        only write-backs / invalidations materialise a view.  On the object
        backend (``cache.arrays is None``) or for a plugged-in policy the
        generic per-line walk is used instead.  Returns the number of lines
        processed (non-SKIP actions).
        """
        cache = self.cache
        kind = self._policy_kind
        if not indices:
            return 0
        if cache.arrays is None or kind == "custom":
            processed = 0
            assoc = cache.geometry.associativity
            for index in indices:
                action = self.apply_policy(
                    index // assoc, cache.view(index), cycle
                )
                if action is not PolicyAction.SKIP:
                    processed += 1
            return processed

        retention = self.config.retention_cycles
        counters = self.counters
        if kind in ("valid", "all"):
            violations = 0
            for index in indices:
                violations += cache.refresh_line_checked(index, cycle, retention)
            counters.add(self._refresh_counter, len(indices))
            if violations:
                counters.add("decay_violations", violations)
            return len(indices)

        assoc = cache.geometry.associativity
        processed = 0
        refreshed = 0
        violations = 0
        if kind == "dirty":
            for index in indices:
                if cache.dirty_at(index):
                    violations += cache.refresh_line_checked(index, cycle, retention)
                    refreshed += 1
                    processed += 1
                else:
                    action = self.apply_policy(
                        index // assoc, cache.view(index), cycle
                    )
                    if action is not PolicyAction.SKIP:
                        processed += 1
        else:  # WB(n, m)
            dirty_budget = self._dirty_budget
            clean_budget = self._clean_budget
            for index in indices:
                tick = cache.wb_tick(
                    index, cycle, retention, dirty_budget, clean_budget
                )
                if tick >= 0:
                    violations += tick
                    refreshed += 1
                    processed += 1
                else:
                    action = self.apply_policy(
                        index // assoc, cache.view(index), cycle
                    )
                    if action is not PolicyAction.SKIP:
                        processed += 1
        if refreshed:
            counters.add(self._refresh_counter, refreshed)
        if violations:
            counters.add("decay_violations", violations)
        return processed

    def _refresh_line(self, line: CacheLine, cycle: int) -> None:
        """Recharge one line's cells, with a decay sanity check."""
        if line.valid and line.is_expired(cycle, self.config.retention_cycles):
            # The controller failed to reach this line before its retention
            # ran out; count it so tests can assert this never happens.
            self.counters.add("decay_violations")
        line.refresh(cycle)
        self.counters.add(self._refresh_counter)

    def block_array(self, cycle: int, lines_processed: int) -> None:
        """Block the array while ``lines_processed`` lines are handled.

        Refresh work has priority over plain read/write requests
        (Section 4.2), so demand accesses arriving while the pass runs wait
        until it finishes; the protocol charges that wait as stall cycles.
        """
        if lines_processed <= 0:
            return
        busy_for = lines_processed * self._refresh_cycles_per_line
        self.cache.busy_until = max(self.cache.busy_until, cycle + busy_for)


@functools.lru_cache(maxsize=None)
def _paper_line_counts() -> Dict[str, int]:
    """Line count of each level of Table 5.1's full-size geometry.

    Built once: every eDRAM job asks for it once per cache.  Callers must
    not mutate the shared dict.
    """
    from repro.config.presets import paper_architecture

    paper = paper_architecture()
    return {
        "l1i": paper.l1i.num_lines,
        "l1d": paper.l1d.num_lines,
        "l2": paper.l2.num_lines,
        "l3": paper.l3_bank.num_lines,
    }


def level_refresh_config(
    config: SimulationConfig, level: str, cache: "Cache | int"
) -> RefreshConfig:
    """The refresh configuration seen by one cache level's controller.

    ``cache`` may be the live :class:`~repro.mem.cache.Cache` (controller
    construction) or just its line count (the invariant engine recomputes
    per-level retention from geometry alone, without building a hierarchy).

    On the paper-sized geometry every level simply uses the configured
    retention period.  On a *scaled* geometry the levels are shrunk by
    different factors (the L3 and the retention period share one factor; the
    L1/L2 are shrunk less so realistic hit rates remain possible), which
    would otherwise over-refresh the L1/L2: their refresh rate in
    lines-per-cycle would exceed the full-size system's.  To keep every
    level's refresh power faithful, the retention period of a level is
    stretched by the ratio of its scale factor to the L3's, i.e.::

        retention(level) = retention_config
                           * (paper_lines(level) / actual_lines(level))
                           / (paper_lines(l3)    / actual_lines(l3))

    which is exactly 1x for the unscaled geometry.  The Sentry margin is
    re-derived from the level's own line count, as in Section 4.1.
    """
    assert config.refresh is not None
    refresh = config.refresh
    if level == "l3":
        return refresh
    num_lines = getattr(cache, "num_lines", cache)
    paper_lines = _paper_line_counts()
    level_scale = paper_lines[level] / num_lines
    l3_scale = paper_lines["l3"] / config.architecture.l3_bank.num_lines
    multiplier = max(1.0, l3_scale / level_scale)
    retention = max(2, int(round(refresh.retention_cycles * multiplier)))
    margin = min(num_lines, retention - 1)
    return dataclasses.replace(
        refresh, retention_cycles=retention, sentry_margin_cycles=margin
    )


def build_refresh_controllers(
    hierarchy: CacheHierarchy,
    config: SimulationConfig,
    event_queue: EventQueue,
) -> List[RefreshController]:
    """Create one refresh controller per cache array for an eDRAM config.

    Returns an empty list for the SRAM baseline (nothing to refresh).  Each
    level uses the data policy the configuration assigns to it; following
    the paper, L1 and L2 default to Valid while the configured intelligent
    policy is applied at the L3.
    """
    if not config.is_edram:
        return []
    assert config.refresh is not None
    from repro.refresh.periodic import PeriodicRefreshController
    from repro.refresh.refrint import RefrintRefreshController

    refresh = config.refresh
    controllers: List[RefreshController] = []
    # One calendar queue serves every controller: timers from all 64 arrays
    # coalesce into shared buckets, so a single queue event drains the
    # simultaneous sentry decays (and identically staggered periodic passes)
    # of many caches at once.
    wheel = RefreshWheel(event_queue)
    hierarchy.refresh_wheel = wheel
    for level, instance, cache in hierarchy.all_caches():
        policy_level = "l1" if level in ("l1i", "l1d") else level
        policy = make_data_policy(refresh.data_policy_for_level(policy_level))
        level_config = level_refresh_config(config, level, cache)
        if refresh.timing_policy is TimingPolicyKind.PERIODIC:
            controller: RefreshController = PeriodicRefreshController(
                level, instance, cache, policy, level_config, hierarchy,
                event_queue, wheel=wheel,
            )
        else:
            controller = RefrintRefreshController(
                level, instance, cache, policy, level_config, hierarchy,
                event_queue, wheel=wheel,
            )
        controllers.append(controller)
    return controllers
