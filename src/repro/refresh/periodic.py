"""Periodic (baseline) refresh controller.

The trivial eDRAM refresh scheme: a global counter walks the cache once per
retention period, refreshing a group of lines at a time (one group per CACTI
sub-array).  To avoid bunching the work, the groups' passes are staggered
across the retention period (Section 3.2).  The scheme needs no Sentry bits,
but it is eager -- a line is refreshed on schedule even if it was accessed
(and therefore recharged) a cycle earlier -- and it blocks the array while a
group is walked, which is where the paper's 18 % slowdown for Periodic-All
comes from.

The data policy still decides what happens to each line in the group:
Periodic-All refreshes everything (the naive baseline configuration),
Periodic-Valid skips invalid lines, and Periodic-Dirty / Periodic-WB(n, m)
invalidate or write back lines exactly as they do under Refrint timing.

A refresh group is a contiguous range of line indices, computed once per
controller.  The All and Valid passes -- which touch no per-line policy
state -- run as one slice operation over the cache's timestamp vectors
(:meth:`~repro.mem.cache.Cache.bulk_refresh_range`).  On the array backend
a Dirty or WB(n, m) pass is one walk of its range over the state vectors:
it stamps the invalid lines, takes the refresh ticks (and Count
decrements) in place, and collects the lines that need a write-back or an
invalidation, which are then carried out by line index.  On the object
backend (the test oracle) a Dirty or WB(n, m) pass, and every pass of a
plugged-in policy, judges each line of the group through the policy's
``decide()``.

Each group pass is one exact timer (``ready == deadline``) on the
simulation's refresh-timer calendar (:class:`~repro.utils.events.EventQueue`);
its handler returns the cycle of the group's next pass, one retention
period on, and the queue re-arms the timer there.
"""

from __future__ import annotations

from typing import Any, List

from repro.refresh.controller import RefreshController


class PeriodicRefreshController(RefreshController):
    """Walks one refresh group per timer, once per retention period.

    Group passes are exact timers on the shared refresh-timer calendar;
    identically configured controllers (all 16 cores' L1s, say) stagger
    their groups to the same nominal cycles, so one drain walks the
    same-numbered group of every such cache at once.
    """

    def start(self, cycle: int) -> None:
        """Stagger the groups' first passes across one retention period."""
        self._pass_counter = f"{self.level}_periodic_passes"
        # All and Valid act uniformly on (in)valid lines, so a whole group
        # can be refreshed with slice operations; Dirty / WB need a per-line
        # decision on every valid line.  Exact types only (the policy-kind
        # classification from the base class): a subclassed policy on the
        # object backend keeps the every-line walk, so its decide()
        # overrides are honoured.
        self._include_invalid = self._policy_kind == "all"
        cache = self.cache
        num_groups = cache.geometry.num_refresh_groups
        self._ranges = [
            cache.refresh_group_line_range(group) for group in range(num_groups)
        ]
        stride = max(1, self.config.retention_cycles // num_groups)
        for group in range(num_groups):
            when = cycle + group * stride
            # Periodic passes are exact timers (ready == deadline): the
            # global counter walks the array on a fixed schedule, so the
            # queue serves each pass at precisely its nominal cycle --
            # batching comes from identically configured controllers whose
            # staggered passes share deadlines, not from slack.
            self.events.schedule(when, when, self._on_group_event, payload=group)

    # -- event handling --------------------------------------------------------

    def _on_group_event(self, cycle: int, payload: Any) -> int:
        """One group pass; returns the cycle of the group's next pass."""
        group: int = payload
        processed = self._walk_group(group, cycle)
        # The pass keeps the sub-array (refresh group) busy for one cycle per
        # line handled; the other sub-arrays of the cache stay accessible.
        if processed:
            busy_for = processed * self._refresh_cycles_per_line
            self.cache.block_group(group, cycle + busy_for)
        self._raw_counts[self._pass_counter] += 1
        return cycle + self.config.retention_cycles

    def _walk_group(self, group: int, cycle: int) -> int:
        """Apply the data policy to every line in the group.

        Returns the number of lines the controller actually had to process
        (refresh, write back or invalidate); skipped lines cost no array
        time because nothing is read or written.
        """
        start, end = self._ranges[group]
        if start >= end:
            return 0
        kind = self._policy_kind
        if kind == "all" or kind == "valid":
            processed, violations = self.cache.bulk_refresh_range(
                start, end, cycle, self.config.retention_cycles,
                self._include_invalid,
            )
            if processed:
                self.counters.add(self._refresh_counter, processed)
            if violations:
                # The controller failed to reach these lines before their
                # retention ran out; counted so tests can assert it never
                # happens.
                self.counters.add("decay_violations", violations)
            return processed
        if self.cache.backend == "object":
            # Every line of the group through decide(): plugged-in policies
            # may act on invalid lines too, and a SKIP advances an invalid
            # line's refresh timestamp.
            return self.process_indices(range(start, end), cycle)
        return self._array_pass(start, end, cycle)

    def _array_pass(self, start: int, end: int, cycle: int) -> int:
        """One Dirty or WB(n, m) pass over ``[start, end)`` (array backend).

        Invalid lines hold nothing: their timestamp is advanced, so lazy
        sentry timers never find them due, and they cost no array time.
        A valid line is refreshed in place (Dirty: if dirty; WB: while its
        Count lasts, decrementing it); the rest are collected and written
        back or invalidated by :meth:`_take_policy_actions`.
        """
        arrays = self.cache.arrays
        valid = arrays.valid
        dirty = arrays.dirty
        last_refresh = arrays.last_refresh_cycle
        limit = cycle - self.config.retention_cycles
        refreshed = 0
        violations = 0
        slow: List[int] = []
        if self._policy_kind == "wb":
            counts = arrays.refresh_count
            dirty_budget = self._dirty_budget
            clean_budget = self._clean_budget
            for i in range(start, end):
                if not valid[i]:
                    last_refresh[i] = cycle
                    continue
                count = counts[i]
                if count < 0:
                    count = dirty_budget if dirty[i] else clean_budget
                if count >= 1:
                    if last_refresh[i] < limit:
                        violations += 1
                    last_refresh[i] = cycle
                    counts[i] = count - 1
                    refreshed += 1
                else:
                    slow.append(i)
        else:  # dirty
            for i in range(start, end):
                if not valid[i]:
                    last_refresh[i] = cycle
                elif dirty[i]:
                    if last_refresh[i] < limit:
                        violations += 1
                    last_refresh[i] = cycle
                    refreshed += 1
                else:
                    slow.append(i)
        if slow:
            self._take_policy_actions(slow, cycle)
        stat_counts = self._raw_counts
        if refreshed:
            stat_counts[self._refresh_counter] += refreshed
        if violations:
            stat_counts["decay_violations"] += violations
        return refreshed + len(slow)
