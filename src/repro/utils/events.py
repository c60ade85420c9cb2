"""The refresh-timer calendar: the simulator's one event scheduler.

In the simulator the only timed events are refresh work -- Periodic group
passes and Refrint's Sentry-bit interrupts.  Cores never schedule events:
the replay loop keeps their pending issue times in its own ready list and
draws one ``(time, seq)`` key per reference from this queue's counter.

:class:`EventQueue` is a bucketed calendar queue of refresh timers:

* A *timer* is ``(ready, deadline, callback, payload)``.  ``ready`` is the
  earliest cycle it may be served (the predicted sentry decay or the
  periodic group's nominal pass time); ``deadline`` is the latest.  A
  periodic pass is exact (``deadline == ready``); a lazy Refrint timer may
  be served up to ``sentry margin - 1`` cycles late, because the margin is
  precisely the headroom between a Sentry bit's decay and the line's own.
* Timers are hashed into fixed-width *buckets* by their deadline.  Because
  a bucket spans ``[b*w, (b+1)*w)``, the earliest non-empty bucket always
  holds the globally earliest deadline.  Pending bucket ids sit in a heap
  beside the bucket dict, so a drain pops exactly the buckets at or below
  ``cycle // bucket_cycles``.
* The queue is *armed* at the earliest pending deadline, under a
  ``(time, seq)`` key whose ``seq`` comes from the same counter as the
  references' keys.  A *drain* at that time serves every timer that is
  ready by then -- across all due buckets, and typically across many
  refresh controllers -- in deterministic (bucket, insertion) order, then
  re-arms once for the whole burst.

A timer re-arms itself: its callback returns the next cycle at which it
must be ready again (or None to stop), and the drain re-buckets it with its
own slack (``deadline - ready``).  A periodic pass returns one retention
period on; a Refrint group interrupt returns its group's next earliest
decay, whether or not the pass found anything due -- deciding "nothing
due" is the handler's job, and the handler counts such a pass in
:attr:`EventQueue.skips`.

Determinism: drains happen at exact deadline cycles, timers are served in
(bucket index, insertion order) order, and the queue never consults
wall-clock state -- so simulations are reproducible and identical across
cache backends.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default bucket width in cycles.  Narrow enough that a drain rarely visits
#: timers that are not yet ready, wide enough that simultaneous sentry
#: timers (and the staggered periodic passes of identical controllers)
#: coalesce into one drain.
DEFAULT_BUCKET_CYCLES = 64

#: A timer callback: ``callback(cycle, payload)`` does the timer's work and
#: returns the next cycle at which it must be ready again, or None to stop.
TimerCallback = Callable[[int, Any], Optional[int]]

#: A timer: (ready cycle, deadline cycle, callback, payload).
Timer = Tuple[int, int, TimerCallback, Any]


class EventQueue:
    """Calendar queue of refresh timers, shared by every controller of a run.

    Sharing is what lets one drain serve many controllers: the 32 L1
    controllers of a chip arm thousands of single-line sentry timers whose
    deadlines land in the same handful of buckets.
    """

    def __init__(self, bucket_cycles: int = DEFAULT_BUCKET_CYCLES) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.bucket_cycles = bucket_cycles
        self._buckets: Dict[int, List[Timer]] = {}
        #: Every key of ``_buckets`` exactly once, as a min-heap.
        self._bucket_heap: List[int] = []
        #: Sequence numbers shared with the replay loop's reference keys.
        self._counter = itertools.count()
        #: ``(time, seq)`` key of the next drain, or None when no timer is
        #: pending.
        self.armed: Optional[Tuple[int, int]] = None
        #: Drains run.
        self.drains = 0
        #: Timers served by drains.
        self.scans = 0
        #: Served timers whose handler found nothing due (a Refrint group
        #: whose predicted decays were all recharged by accesses), counted
        #: by the handlers.  A skip is a served timer, so ``skips <= scans``
        #: always -- one of the invariants repro.validate checks per run.
        self.skips = 0

    def schedule(
        self,
        ready: int,
        deadline: int,
        callback: TimerCallback,
        payload: Any = None,
    ) -> None:
        """Add a timer servable anywhere in ``[ready, deadline]`` cycles.

        ``callback(cycle, payload)`` runs during some drain at a cycle in
        that window; its return value re-arms the timer (see
        :data:`TimerCallback`).  Periodic (exact) timers pass
        ``deadline == ready``.  A deadline earlier than the armed key's time
        pulls the key earlier.
        """
        if deadline < ready:
            raise ValueError(f"deadline {deadline} precedes ready {ready}")
        bucket = deadline // self.bucket_cycles
        timers = self._buckets.get(bucket)
        if timers is None:
            self._buckets[bucket] = [(ready, deadline, callback, payload)]
            heappush(self._bucket_heap, bucket)
        else:
            timers.append((ready, deadline, callback, payload))
        if self.armed is None or deadline < self.armed[0]:
            self.armed = (deadline, next(self._counter))

    def run_until_key(self, time: int, seq: int) -> int:
        """Run every drain keyed strictly before ``(time, seq)``.

        The replay loop calls this before the reference holding that key,
        so drains and references interleave in one deterministic order.
        Returns the number of drains run.
        """
        key = (time, seq)
        drained = 0
        while self.armed is not None and self.armed < key:
            self._drain(self.armed[0])
            drained += 1
        return drained

    def run(self, until: Optional[int] = None) -> int:
        """Run every drain due at or before cycle ``until`` (all if None).

        Returns the number of drains run.
        """
        drained = 0
        while self.armed is not None and (until is None or self.armed[0] <= until):
            self._drain(self.armed[0])
            drained += 1
        return drained

    def next_deadline(self) -> Optional[int]:
        """Earliest cycle by which some pending timer must be served."""
        if not self._bucket_heap:
            return None
        return min(timer[1] for timer in self._buckets[self._bucket_heap[0]])

    def clear(self) -> None:
        """Drop every pending timer and disarm.

        For a simulation that is over: its timers can never fire again, and
        their callbacks (bound methods of the refresh controllers, which
        hold this queue) would otherwise keep the whole chip alive in a
        reference cycle until the garbage collector finds it.  The counters
        are kept.
        """
        self.armed = None
        self._buckets.clear()
        self._bucket_heap.clear()

    def _drain(self, cycle: int) -> None:
        """Serve every ready timer, re-bucket it, then re-arm once.

        The queue is armed at the earliest pending deadline, so nothing is
        ever served after its deadline; timers whose ``ready`` has passed
        ride along in the same drain even if their deadline lies further
        out (that is the batching).  The due list is fixed before any
        callback runs, so a timer re-armed into an already visited bucket
        waits for the next drain.
        """
        self.armed = None
        self.drains += 1
        buckets = self._buckets
        heap = self._bucket_heap
        max_bucket = cycle // self.bucket_cycles
        due: List[Timer] = []
        waiting: List[int] = []
        while heap and heap[0] <= max_bucket:
            bucket = heappop(heap)
            timers = buckets[bucket]
            keep = [timer for timer in timers if timer[0] > cycle]
            if not keep:
                del buckets[bucket]
                due += timers
                continue
            waiting.append(bucket)
            if len(keep) < len(timers):
                buckets[bucket] = keep
                due += [timer for timer in timers if timer[0] <= cycle]
        for bucket in waiting:
            heappush(heap, bucket)
        self.scans += len(due)
        # Each callback returns its timer's next ready cycle; the timer is
        # re-bucketed right away (so insertion order follows service order)
        # with its own slack.  Timers that stop are dropped.
        width = self.bucket_cycles
        for ready, deadline, callback, payload in due:
            next_ready = callback(cycle, payload)
            if next_ready is None:
                continue
            next_deadline = next_ready + (deadline - ready)
            bucket = next_deadline // width
            timers = buckets.get(bucket)
            if timers is None:
                buckets[bucket] = [(next_ready, next_deadline, callback, payload)]
                heappush(heap, bucket)
            else:
                timers.append((next_ready, next_deadline, callback, payload))
        next_deadline = self.next_deadline()
        if next_deadline is not None:
            self.armed = (next_deadline, next(self._counter))
