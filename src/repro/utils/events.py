"""A minimal discrete-event scheduler.

In the simulator the refresh subsystem is the queue's only producer: the
refresh controllers keep their timers in a calendar queue
(:mod:`repro.utils.wheel`) that holds a single armed event here.  Cores
never schedule events.  The simulator's replay loop keeps their pending
issue times in its own ready list and draws one ``(time, seq)`` key per
reference from this queue's counter; wheel drains ordered before a
reference run first, through :meth:`EventQueue.run_until_key`.  Events
carry a callback and an arbitrary payload; ties are broken by insertion
order so simulation is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time (cycles) at which the event fires.
        seq: monotonically increasing tie-breaker assigned by the queue.
        callback: callable invoked as ``callback(time, payload)``.
        payload: arbitrary data handed back to the callback.
        cancelled: cancelled events are skipped when popped.

    The heap itself is keyed by plain ``(time, seq, ...)`` tuples, so
    ordering is decided by C-level int comparisons and the event object
    never needs rich-comparison methods.
    """

    __slots__ = ("time", "seq", "callback", "payload", "cancelled", "queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.queue = queue

    def cancel(self) -> None:
        """Mark this event so the queue drops it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()
            self.queue = None

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time}, seq={self.seq}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """Priority queue of events ordered by (time, insertion order).

    Heap entries are ``(time, seq, callback, payload, handle)`` tuples;
    ``handle`` is the :class:`Event` returned by :meth:`schedule`, so it can
    be cancelled.  ``seq`` is unique, so tuple comparison never reaches the
    non-comparable elements.
    """

    #: Compaction threshold: the heap is rebuilt without its cancelled
    #: entries once they outnumber the live ones (and enough have piled up
    #: for the O(n) rebuild to be worth it).  Producers that cancel on every
    #: reschedule -- the refresh wheel re-arming at an earlier deadline --
    #: would otherwise grow the heap with dead tuples until popped.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._heap: list[Tuple] = []
        self._counter = itertools.count()
        self._now = 0
        self._live = 0
        self._cancelled = 0
        #: Events executed over this queue's lifetime (cancelled entries
        #: are not counted).  The simulator reports it in ``ReplayStats``.
        self.popped_events = 0

    @property
    def now(self) -> int:
        """Current simulation time (time of the last event popped)."""
        return self._now

    def __len__(self) -> int:
        # O(1): a live-event counter is maintained on schedule/cancel/run
        # instead of scanning the heap for cancelled entries.
        return self._live

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` when a tracked event is cancelled."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled >= self._COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        In place: the simulator's replay loop holds a long-lived local
        alias to the heap list, so the list object must survive.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[4].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def schedule(
        self,
        time: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at ``time``; returns the event handle.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        seq = next(self._counter)
        event = Event(time, seq, callback, payload, queue=self)
        heapq.heappush(self._heap, (time, seq, callback, payload, event))
        self._live += 1
        return event

    def run_until_key(self, time: int, seq: int) -> int:
        """Execute every live event ordered strictly before ``(time, seq)``.

        The simulator's replay loop uses this to let refresh events fire in
        their exact heap order relative to the core reference it is about to
        execute.  The clock is left at the last executed event (or
        untouched when nothing ran); returns the number of events executed.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            entry = heap[0]
            handle = entry[4]
            if handle.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if entry[0] > time or (entry[0] == time and entry[1] >= seq):
                break
            pop(heap)
            handle.queue = None
            self._live -= 1
            self._now = entry[0]
            self.popped_events += 1
            entry[2](entry[0], entry[3])
            executed += 1
        return executed

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events in order.

        Args:
            until: stop (without executing) at the first event later than this
                time; the clock is left at the last executed event.
            max_events: stop after executing this many events.

        Returns:
            The number of events executed.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            time, _, callback, payload, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            handle.queue = None
            self._live -= 1
            self._now = time
            self.popped_events += 1
            callback(time, payload)
            executed += 1
        return executed
