"""Bucketed calendar queue (timer wheel) for refresh fire times.

The refresh subsystem used to keep one heap event alive per sentry group and
per periodic refresh group -- for the L1s, whose sentry groups are single
lines, that meant one event per line per sentry period, and the simulator's
event queue spent more time on refresh timers than on the workload itself.

:class:`RefreshWheel` replaces those per-group events with a calendar queue:

* An *entry* is ``(ready, deadline, callback, payload)``.  ``ready`` is the
  earliest cycle the entry may be processed (the predicted sentry decay or
  the periodic group's nominal pass time); ``deadline`` is the latest.  A
  periodic pass is exact (``deadline == ready``); a lazy Refrint timer may
  be served up to ``sentry margin - 1`` cycles late, because the margin is
  precisely the headroom between a Sentry bit's decay and the line's own.
* Entries are hashed into fixed-width *buckets* by their deadline.  Because
  a bucket spans ``[b*w, (b+1)*w)``, the earliest non-empty bucket always
  contains the globally earliest deadline, so finding the next required
  service time never scans the whole wheel.
* The wheel keeps exactly **one** event in the :class:`~repro.utils.events.EventQueue`,
  armed at the earliest pending deadline.  When it fires, every entry that
  is *ready* by that cycle -- across all due buckets, and typically across
  many refresh controllers sharing the wheel -- is drained in one callback,
  in deterministic (bucket, insertion) order.  Re-arming happens once per
  drain, so a burst of reschedules costs one heap push instead of one per
  group.

Entries whose deadline forces an earlier service time than the armed event
cause a cancel + re-arm; the queue's heap compaction (see
:meth:`~repro.utils.events.EventQueue._note_cancelled`) keeps those
cancelled entries from accumulating.

A timer re-arms itself: its callback returns the next cycle at which it
must be ready again (or None to stop), and the drain re-buckets the entry
with the entry's own slack (``deadline - ready``).  A periodic pass returns
one retention period on; a Refrint group interrupt returns its group's next
earliest decay, whether or not the pass found anything due -- deciding
"nothing due" is the handler's job, done in the same walk that computes the
next fire time, and the handler counts such a pass in :attr:`RefreshWheel.skips`.

Pending bucket ids are kept in a heap beside the bucket dict, so a drain
pops exactly the buckets at or below ``cycle // bucket_cycles`` and
:meth:`RefreshWheel.next_deadline` reads the top bucket, instead of
scanning every pending bucket key.

Determinism: drains happen at exact deadline cycles, entries are processed
in (bucket index, insertion order) order, and the wheel itself never
consults wall-clock state -- so simulations are reproducible and identical
across cache backends.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.events import Event, EventQueue

#: Default bucket width in cycles.  Narrow enough that a drain rarely visits
#: entries that are not yet ready, wide enough that simultaneous sentry
#: timers (and the staggered periodic passes of identical controllers)
#: coalesce into one queue event.
DEFAULT_BUCKET_CYCLES = 64

#: A timer callback: ``callback(cycle, payload)`` does the timer's work and
#: returns the next cycle at which it must be ready again, or None to stop.
TimerCallback = Callable[[int, Any], Optional[int]]

#: An entry: (ready cycle, deadline cycle, callback, payload).
WheelEntry = Tuple[int, int, TimerCallback, Any]


class RefreshWheel:
    """Calendar queue of refresh timers, driven by one queue event.

    One wheel is shared by every refresh controller of a simulation (see
    :func:`~repro.refresh.controller.build_refresh_controllers`); a
    controller constructed standalone builds a private one.  Sharing is what
    lets one drain serve many controllers: the 32 L1 controllers of a chip
    arm thousands of single-line sentry timers whose deadlines land in the
    same handful of buckets.
    """

    def __init__(
        self, events: EventQueue, bucket_cycles: int = DEFAULT_BUCKET_CYCLES
    ) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.events = events
        self.bucket_cycles = bucket_cycles
        self._buckets: Dict[int, List[WheelEntry]] = {}
        #: Every key of ``_buckets`` exactly once, as a min-heap.
        self._bucket_heap: List[int] = []
        self._armed: Optional[Event] = None
        self._armed_time: Optional[int] = None
        self._len = 0
        self._draining = False
        #: Number of times the queue event fired (drains), for diagnostics.
        self.drains = 0
        #: Served entries whose handler found nothing due (a Refrint group
        #: whose predicted decays were all recharged by accesses), counted
        #: by the handlers, for diagnostics.
        self.skips = 0
        #: Entries served by drains.  A skip is a served entry, so
        #: ``skips <= scans`` always -- one of the invariants
        #: repro.validate checks per run.
        self.scans = 0

    def __len__(self) -> int:
        return self._len

    def schedule(
        self,
        ready: int,
        deadline: int,
        callback: TimerCallback,
        payload: Any = None,
    ) -> None:
        """Add a timer servable anywhere in ``[ready, deadline]`` cycles.

        ``callback(cycle, payload)`` runs during some drain at a cycle in
        that window.  Periodic (exact) timers pass ``deadline == ready``.
        Its return value re-arms the timer (see :data:`TimerCallback`).
        """
        if deadline < ready:
            raise ValueError(f"deadline {deadline} precedes ready {ready}")
        bucket = deadline // self.bucket_cycles
        entries = self._buckets.get(bucket)
        if entries is None:
            self._buckets[bucket] = [(ready, deadline, callback, payload)]
            heappush(self._bucket_heap, bucket)
        else:
            entries.append((ready, deadline, callback, payload))
        self._len += 1
        # During a drain the handler re-arms once at the end; outside one,
        # pull the armed event earlier if this deadline precedes it.
        if not self._draining and (
            self._armed_time is None or deadline < self._armed_time
        ):
            self._arm(deadline)

    def next_deadline(self) -> Optional[int]:
        """Earliest cycle by which some pending timer must be served."""
        if not self._bucket_heap:
            return None
        return min(entry[1] for entry in self._buckets[self._bucket_heap[0]])

    def clear(self) -> None:
        """Drop every pending timer and cancel the armed queue event.

        For a simulation that is over: its timers can never fire again, and
        their callbacks (bound methods of the refresh controllers, which
        hold the hierarchy that holds this wheel) would otherwise keep the
        whole chip alive in a reference cycle until the garbage collector
        finds it.  The diagnostic counters are kept.
        """
        if self._armed is not None:
            self._armed.cancel()
        self._armed = None
        self._armed_time = None
        self._buckets.clear()
        self._bucket_heap.clear()
        self._len = 0

    # -- internals -----------------------------------------------------------

    def _arm(self, time: int) -> None:
        if self._armed is not None:
            self._armed.cancel()
        self._armed = self.events.schedule(time, self._drain)
        self._armed_time = time

    def _drain(self, cycle: int, _payload: Any) -> None:
        """Serve every ready entry, re-bucket it, then re-arm once.

        The armed event fires at the earliest pending deadline, so nothing
        is ever served late(r than its deadline); entries whose ``ready``
        has passed ride along in the same drain even if their deadline lies
        further out (that is the batching).  Buckets are visited in index
        order and entries in insertion order, which keeps the simulation
        deterministic.  The due list is fixed before any callback runs, so
        a timer re-armed into an already visited bucket waits for the next
        drain.
        """
        self._armed = None
        self._armed_time = None
        self.drains += 1
        buckets = self._buckets
        heap = self._bucket_heap
        max_bucket = cycle // self.bucket_cycles
        due: List[WheelEntry] = []
        waiting: List[int] = []
        while heap and heap[0] <= max_bucket:
            bucket = heappop(heap)
            entries = buckets[bucket]
            keep = [entry for entry in entries if entry[0] > cycle]
            if not keep:
                del buckets[bucket]
                due += entries
                continue
            waiting.append(bucket)
            if len(keep) < len(entries):
                buckets[bucket] = keep
                due += [entry for entry in entries if entry[0] <= cycle]
        for bucket in waiting:
            heappush(heap, bucket)
        self._len -= len(due)
        self.scans += len(due)
        # Each callback returns its timer's next ready cycle; the entry is
        # re-bucketed right away (so insertion order follows service
        # order) with its own slack, and the queue event is re-armed once
        # for the whole burst.  Entries that stop are dropped.
        width = self.bucket_cycles
        rearmed = 0
        self._draining = True
        try:
            for ready, deadline, callback, payload in due:
                next_ready = callback(cycle, payload)
                if next_ready is None:
                    continue
                rearmed += 1
                next_deadline = next_ready + (deadline - ready)
                bucket = next_deadline // width
                entries = buckets.get(bucket)
                if entries is None:
                    buckets[bucket] = [
                        (next_ready, next_deadline, callback, payload)
                    ]
                    heappush(heap, bucket)
                else:
                    entries.append((next_ready, next_deadline, callback, payload))
        finally:
            self._draining = False
            self._len += rearmed
        next_deadline = self.next_deadline()
        if next_deadline is not None:
            self._arm(next_deadline)

    def __repr__(self) -> str:
        return (
            f"RefreshWheel(entries={self._len}, "
            f"bucket_cycles={self.bucket_cycles}, "
            f"armed_at={self._armed_time})"
        )
