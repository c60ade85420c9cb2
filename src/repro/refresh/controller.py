"""Refresh controller base class and construction helpers.

A refresh controller is attached to one physical cache array (one private
cache or one L3 bank).  It owns the *timing* side of refresh -- when lines
are considered for refresh -- and applies a
:class:`~repro.refresh.policies.DataPolicy` for the *data* side.  Its
actions go through the hierarchy's policy entry points, by line index, so
that write-backs, inclusion back-invalidations and DRAM traffic are
accounted exactly like those caused by normal execution.

On the array backend the four paper policies (All, Valid, Dirty, WB(n, m))
are applied as index arithmetic over the cache's state vectors: the
refresh ticks happen in place, and the verdict for a line that cannot be
refreshed is already known (:meth:`RefreshController._take_policy_actions`),
so no :class:`~repro.refresh.policies.PolicyDecision` is built.  Those four
are the only policies the array backend runs: a controller for an array
cache with any other :class:`~repro.refresh.policies.DataPolicy` raises
``TypeError``.  The object backend (the test oracle) asks
:meth:`DataPolicy.decide <repro.refresh.policies.DataPolicy.decide>` line
by line (:meth:`RefreshController.apply_policy`), so it also runs a
plugged-in policy.

Two concrete controllers exist:

* :class:`~repro.refresh.periodic.PeriodicRefreshController` -- the naive
  baseline: every refresh group is walked once per retention period,
  staggered across the period, blocking the array while it is walked;
* :class:`~repro.refresh.refrint.RefrintRefreshController` -- the paper's
  proposal: per-line Sentry bits interrupt the controller just before a line
  decays, so lines are refreshed only when they truly need it.

Both keep their timers on the simulation's one refresh-timer calendar,
:class:`~repro.utils.events.EventQueue`: a timer's handler does one pass and
returns the cycle at which the timer must be ready again.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from typing import Dict, Iterable, List, Optional

from repro.config.parameters import RefreshConfig, SimulationConfig, TimingPolicyKind
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.mem.cache import Cache
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


class RefreshController(abc.ABC):
    """Common machinery for the periodic and Refrint controllers.

    Refresh timers (periodic group passes, lazy sentry interrupts) are
    scheduled on the :class:`~repro.utils.events.EventQueue` the controller
    is given; a timer's handler returns its next ready cycle and the queue
    re-arms it.  :func:`build_refresh_controllers` hands every controller of
    a simulation the same queue, so one drain serves the due timers of all
    of them.
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
    ) -> None:
        self.level = level
        self.instance = instance
        self.cache = cache
        self.policy = policy
        self.config = refresh_config
        self.hierarchy = hierarchy
        self.events = event_queue
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
        """Classify the data policy by exact type.

        On the array backend the refresh decisions of the paper policies
        (REFRESH under Valid/All, a Count decrement under WB(n, m)) are
        pure index arithmetic, and only write-backs and invalidations go
        through the hierarchy entry points; no other policy runs there.
        On the object backend a policy of any other type (``_policy_kind``
        None) is asked through :meth:`apply_policy` for every line.
        """
        policy = self.policy
        policy_type = type(policy)
        if policy_type is AllPolicy:
            self._policy_kind = "all"
        elif policy_type is ValidPolicy:
            self._policy_kind = "valid"
        elif policy_type is DirtyPolicy:
            self._policy_kind = "dirty"
        elif policy_type is WritebackPolicy:
            self._policy_kind = "wb"
            self._dirty_budget = policy.dirty_refreshes
            self._clean_budget = policy.clean_refreshes
        elif self.cache.backend == "array":
            raise TypeError(
                f"the array cache backend applies only the paper's data "
                f"policies (All, Valid, Dirty, WB(n, m)), not "
                f"{policy_type.__name__}; run a plugged-in policy on the "
                f'object backend (cache_backend="object")'
            )
        else:
            self._policy_kind = None

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def start(self, cycle: int) -> None:
        """Schedule this controller's first event(s) at or after ``cycle``."""

    # -- shared action machinery ---------------------------------------------

    def apply_policy(self, index: int, cycle: int) -> PolicyAction:
        """Ask the data policy about one line and carry out its verdict.

        The object backend's walk: ``decide()`` sees the line object itself.
        Returns the action taken, so the timing controllers can decide how
        many controller cycles the pass consumed.
        """
        line = self.cache.line(index)
        decision = self.policy.decide(line)
        action = decision.action
        if action is PolicyAction.REFRESH:
            if line.valid and line.is_expired(cycle, self.config.retention_cycles):
                # The controller failed to reach this line before its
                # retention ran out; counted so tests can assert this never
                # happens.
                self.counters.add("decay_violations")
            line.refresh(cycle)
            self.counters.add(self._refresh_counter)
        elif action is PolicyAction.WRITEBACK:
            self.hierarchy.policy_writeback(self.level, self.instance, index, cycle)
            self.counters.add(self._writeback_counter)
        elif action is PolicyAction.INVALIDATE:
            self.hierarchy.policy_invalidate(self.level, self.instance, index, cycle)
            self.counters.add(self._invalidate_counter)
        else:
            # SKIP: nothing holds useful data here.  Advance the refresh
            # timestamp anyway so lazy sentry timers do not keep finding the
            # same (invalid) line "due" on every pass.
            line.last_refresh_cycle = cycle
        if decision.new_count is not None:
            line.refresh_count = decision.new_count
        return action

    def process_indices(self, indices: Iterable[int], cycle: int) -> int:
        """:meth:`apply_policy` on each line at ``indices``, in order.

        Returns the number of lines processed (non-SKIP actions).
        """
        processed = 0
        for index in indices:
            if self.apply_policy(index, cycle) is not PolicyAction.SKIP:
                processed += 1
        return processed

    def _take_policy_actions(self, indices: List[int], cycle: int) -> None:
        """Write back or invalidate lines an array pass could not refresh.

        Array backend, Dirty and WB(n, m) only; the verdict is known from
        the line's state (Table 3.1, Fig. 4.1).  Under WB(n, m) these are
        the lines whose Count ran out: a dirty one is written back and gets
        a fresh Count of m for its valid-clean life, a clean one is
        invalidated.  Under Dirty they are the due valid-clean lines, which
        are invalidated.
        """
        hierarchy = self.hierarchy
        level = self.level
        instance = self.instance
        arrays = self.cache.arrays
        dirty = arrays.dirty
        stat_counts = self._raw_counts
        for index in indices:
            if dirty[index]:  # WB(n, m) only: Dirty refreshes its dirty lines
                hierarchy.policy_writeback(level, instance, index, cycle)
                stat_counts[self._writeback_counter] += 1
                arrays.refresh_count[index] = self._clean_budget
            else:
                hierarchy.policy_invalidate(level, instance, index, cycle)
                stat_counts[self._invalidate_counter] += 1

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
    margin = RefreshConfig.derive_sentry_margin(num_lines, retention)
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
    controller_class = (
        PeriodicRefreshController
        if refresh.timing_policy is TimingPolicyKind.PERIODIC
        else RefrintRefreshController
    )
    controllers: List[RefreshController] = []
    # One calendar queue serves every controller: timers from all 64 arrays
    # coalesce into shared buckets, so a single drain serves the
    # simultaneous sentry decays (and identically staggered periodic passes)
    # of many caches at once.
    for level, instance, cache in hierarchy.all_caches():
        policy_level = "l1" if level in ("l1i", "l1d") else level
        policy = make_data_policy(refresh.data_policy_for_level(policy_level))
        level_config = level_refresh_config(config, level, cache)
        controllers.append(
            controller_class(
                level, instance, cache, policy, level_config, hierarchy,
                event_queue,
            )
        )
    return controllers
