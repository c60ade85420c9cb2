"""Refrint (Sentry-bit, interrupt-driven) refresh controller.

Each cache line carries a Sentry bit that decays ``sentry_margin`` cycles
before the line itself; its decay raises an interrupt through a priority
encoder, and the cache controller then refreshes, writes back or
invalidates the line according to the data policy (Sections 3.1, 4.1, 4.2).
Because a line is only touched when its Sentry bit says it is about to
decay, Refrint performs the minimum number of refreshes needed to keep a
line alive, and the work is naturally spread out in time instead of
arriving in bulk passes.

Sentry bits are grouped onto shared interrupt lines (group size 1 for the
L1s, 4 for the L2 and 16 for the L3 in the paper's configuration); when a
group's interrupt fires the controller processes the group's due lines one
per cycle, with interrupt requests taking priority over plain reads and
writes.

Simulation strategy: a Sentry bit is not a timer of its own -- that would
mean re-arming a timer on every cache access.  The controller keeps one
*lazy* timer per sentry group on the simulation's shared refresh-timer
calendar (:class:`~repro.utils.events.EventQueue`).  A timer is always
armed no later than ``now + sentry retention`` and may be served up to
``margin - 1`` cycles after its predicted decay (the margin is precisely
the headroom the hardware budgets between a Sentry bit's decay and the
line's own), which lets one drain serve many groups -- and many
controllers -- at once.  When a timer is served, lines whose Sentry bit
has actually decayed are processed, and the handler returns the group's
next earliest decay, which the queue re-arms the timer at.  A line that
was accessed (and therefore recharged) after the timer was armed is simply
not due yet and is picked up by a later drain, so no per-access
cancellation is needed; a pass that finds no due line at all does nothing
but compute that next fire time, and is counted as a skip
(:attr:`EventQueue.skips <repro.utils.events.EventQueue.skips>`).

A sentry group is a contiguous ``[start, end)`` range of line indices
(mirroring the wired-OR of adjacent sentry outputs in hardware).  On the
array backend one walk of the range over the cache's state vectors answers
"which lines have decayed", takes their refresh ticks in place and finds
"when does this group fire next"; the lines a tick cannot keep (a WB(n, m)
Count that ran out, a clean line under Dirty) are written back or
invalidated by index, with no per-line objects.  The object backend (the
test oracle, and the home of plugged-in policies) walks the due lines
through the policy's ``decide()``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.refresh.controller import RefreshController
from repro.refresh.policies import AllPolicy


class RefrintRefreshController(RefreshController):
    """Sentry-bit-driven refresh of one cache array."""

    def start(self, cycle: int) -> None:
        """Partition the lines into sentry groups and arm one lazy timer each."""
        self._interrupt_counter = f"{self.level}_sentry_interrupts"
        self._sentry_retention = self.config.sentry_retention_cycles
        # A sentry timer may be served after its predicted decay: the margin
        # is exactly the headroom between a Sentry bit's decay and the
        # line's own (the hardware sizes it so the priority-encoder walk
        # finishes in time, Section 4.1), so anything under ``margin``
        # cycles of lateness can never lose data.  The slack is what lets
        # one drain serve whole batches of timers; it is additionally
        # capped at ~3% of the sentry period so the cadence of repeated
        # passes over an idle line -- which is what ages a WB(n, m) Count
        # towards its write-back/invalidate -- stays true to the paper's.
        self._slack = max(
            0,
            min(
                self.config.sentry_margin_cycles - 1,
                self._sentry_retention // 32,
            ),
        )
        self._include_invalid = isinstance(self.policy, AllPolicy)
        group_size = self.cache.geometry.sentry_group_size
        num_lines = self.cache.num_lines
        self.groups: List[Tuple[int, int]] = [
            (start, min(start + group_size, num_lines))
            for start in range(0, num_lines, group_size)
        ]
        # An empty cache has nothing due before one full sentry retention.
        schedule = self.events.schedule
        handler = self._handler
        first = cycle + self._sentry_retention
        for group in self.groups:
            schedule(first, first + self._slack, handler, payload=group)

    @property
    def _handler(self) -> Callable[[int, Any], int]:
        """The group-interrupt handler this controller's timers run.

        The array backend's single-pass handler fuses the due scan, the
        refresh ticks and the next-fire computation into one int-compare
        loop over the raw state vectors; the object backend keeps the
        two-pass ``decide()`` walk.  A property, not an attribute: a bound
        method stored on the controller would be a reference cycle.
        """
        if self.cache.backend == "object":
            return self._on_group_interrupt
        return self._on_group_interrupt_fast

    # -- event handling --------------------------------------------------------

    def _on_group_interrupt(self, cycle: int, payload: Any) -> int:
        """Object-backend group interrupt; returns the group's next fire
        time."""
        start, end = payload
        include_invalid = self._include_invalid
        sentry_retention = self._sentry_retention
        cache = self.cache
        # The controller walks the group's due lines (one per cycle through
        # the priority encoder); a line accessed since the event was armed
        # had its Sentry bit recharged and is simply not due yet.  This is
        # what makes Refrint cheaper than the eager periodic walk.
        due = cache.refresh_due_indices(
            start, end, cycle - sentry_retention, include_invalid
        )
        if due:
            processed = self.process_indices(due, cycle)
            if processed:
                self.block_array(cycle, processed)
                self.counters.add(self._interrupt_counter)
        else:
            self.events.skips += 1
        # Next fire: the group's earliest future decay, capped at one
        # sentry retention from now (so newly filled lines are never
        # missed).
        horizon = cycle + sentry_retention
        earliest = cache.min_last_refresh(start, end, include_invalid)
        if earliest is None:
            return horizon
        return max(cycle + 1, min(earliest + sentry_retention, horizon))

    def _on_group_interrupt_fast(self, cycle: int, payload: Any) -> int:
        """Single-pass group interrupt over the state vectors (array backend).

        One walk of ``[start, end)`` classifies every line: due lines take
        their refresh tick in place (a timestamp store plus, for WB(n, m), a
        Count decrement), lines needing a write-back or invalidation are
        collected for :meth:`_take_policy_actions`, and the earliest
        last-refresh among the not-due lines is tracked for the next fire
        time, which is returned -- so the whole interrupt, including the
        "nothing due" case, costs one loop of int compares.  Behaviour is
        identical to :meth:`_on_group_interrupt`; the equivalence suite
        pins the two paths against each other.
        """
        start, end = payload
        arrays = self.cache.arrays
        last_refresh = arrays.last_refresh_cycle
        valid = arrays.valid
        sentry_retention = self._sentry_retention
        cutoff = cycle - sentry_retention
        limit = cycle - self.config.retention_cycles
        kind = self._policy_kind
        refreshed = 0
        violations = 0
        slow: Optional[List[int]] = None
        min_not_due = None
        if kind == "wb":
            counts = arrays.refresh_count
            dirty = arrays.dirty
            dirty_budget = self._dirty_budget
            clean_budget = self._clean_budget
            for i in range(start, end):
                if not valid[i]:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    count = counts[i]
                    if count < 0:
                        count = dirty_budget if dirty[i] else clean_budget
                    if count >= 1:
                        if stamp < limit:
                            violations += 1
                        last_refresh[i] = cycle
                        counts[i] = count - 1
                        refreshed += 1
                    elif slow is None:
                        slow = [i]
                    else:
                        slow.append(i)
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        elif kind == "dirty":
            dirty = arrays.dirty
            for i in range(start, end):
                if not valid[i]:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    if dirty[i]:
                        if stamp < limit:
                            violations += 1
                        last_refresh[i] = cycle
                        refreshed += 1
                    elif slow is None:
                        slow = [i]
                    else:
                        slow.append(i)
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        else:  # valid / all
            include_invalid = self._include_invalid
            for i in range(start, end):
                if not valid[i] and not include_invalid:
                    continue
                stamp = last_refresh[i]
                if stamp <= cutoff:
                    if valid[i] and stamp < limit:
                        violations += 1
                    last_refresh[i] = cycle
                    refreshed += 1
                elif min_not_due is None or stamp < min_not_due:
                    min_not_due = stamp
        processed = refreshed
        if slow:
            self._take_policy_actions(slow, cycle)
            processed += len(slow)
        elif not refreshed:
            self.events.skips += 1
        stat_counts = self._raw_counts  # distinct from the WB Count vector
        if refreshed:
            stat_counts[self._refresh_counter] += refreshed
        if violations:
            stat_counts["decay_violations"] += violations
        if processed:
            cache = self.cache
            until = cycle + processed * self._refresh_cycles_per_line
            if until > cache.busy_until:
                cache.busy_until = until
            stat_counts[self._interrupt_counter] += 1
        # Next fire: lines handled this pass carry last_refresh == cycle,
        # i.e. exactly the horizon; only the not-due lines can fire earlier.
        # The horizon cap matters even so: the protocol's functionally
        # atomic transactions stamp lines at cycle + latency, so a not-due
        # line's refresh timestamp can lie in the future.
        horizon = cycle + sentry_retention
        if min_not_due is None:
            return horizon
        # A not-due stamp exceeds cycle - sentry_retention, so this is
        # always a future cycle.
        next_time = min_not_due + sentry_retention
        return horizon if next_time > horizon else next_time
