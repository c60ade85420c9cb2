"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.utils.events import EventQueue


def test_events_fire_in_time_order():
    queue = EventQueue()
    fired = []
    queue.schedule(30, lambda t, p: fired.append((t, p)), payload="c")
    queue.schedule(10, lambda t, p: fired.append((t, p)), payload="a")
    queue.schedule(20, lambda t, p: fired.append((t, p)), payload="b")
    queue.run()
    assert fired == [(10, "a"), (20, "b"), (30, "c")]


def test_ties_break_by_insertion_order():
    queue = EventQueue()
    fired = []
    for label in ("first", "second", "third"):
        queue.schedule(5, lambda t, p: fired.append(p), payload=label)
    queue.run()
    assert fired == ["first", "second", "third"]


def test_schedule_in_past_rejected():
    queue = EventQueue()
    queue.schedule(10, lambda t, p: None)
    queue.run()
    assert queue.now == 10
    with pytest.raises(ValueError):
        queue.schedule(5, lambda t, p: None)


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    keep = queue.schedule(10, lambda t, p: fired.append("keep"))
    cancel = queue.schedule(5, lambda t, p: fired.append("cancel"))
    cancel.cancel()
    queue.run()
    assert fired == ["keep"]
    assert keep.time == 10


def test_run_until_stops_before_later_events():
    queue = EventQueue()
    fired = []
    queue.schedule(10, lambda t, p: fired.append(10))
    queue.schedule(20, lambda t, p: fired.append(20))
    executed = queue.run(until=15)
    assert executed == 1
    assert fired == [10]
    # The remaining event is still there and runs later.
    queue.run()
    assert fired == [10, 20]


def test_run_max_events_limit():
    queue = EventQueue()
    fired = []
    for time in range(5):
        queue.schedule(time, lambda t, p: fired.append(t))
    executed = queue.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_len_counts_only_live_events():
    queue = EventQueue()
    first = queue.schedule(1, lambda t, p: None)
    queue.schedule(2, lambda t, p: None)
    first.cancel()
    assert len(queue) == 1


def test_len_is_tracked_across_schedule_cancel_run():
    queue = EventQueue()
    events = [queue.schedule(time, lambda t, p: None) for time in range(4)]
    assert len(queue) == 4
    events[0].cancel()
    events[0].cancel()  # double cancel must not decrement twice
    assert len(queue) == 3
    # Skips the cancelled event, executes the live one at t=1.
    assert queue.run(max_events=1) == 1
    assert queue.now == 1
    assert len(queue) == 2
    # Cancelling an already-executed event must not affect the counter.
    events[1].cancel()
    assert len(queue) == 2
    queue.run()
    assert len(queue) == 0


def test_len_is_tracked_through_run():
    queue = EventQueue()
    cancelled = []
    # The first event cancels the second while the queue is draining.
    second = queue.schedule(10, lambda t, p: cancelled.append(t))
    queue.schedule(5, lambda t, p: second.cancel())
    assert len(queue) == 2
    queue.run()
    assert cancelled == []
    assert len(queue) == 0


def test_run_until_key_executes_strictly_before_the_key():
    queue = EventQueue()
    fired = []
    queue.schedule(5, lambda t, p: fired.append((t, "a")))   # seq 0
    queue.schedule(10, lambda t, p: fired.append((t, "b")))  # seq 1
    queue.schedule(10, lambda t, p: fired.append((t, "c")))  # seq 2
    # Everything before (10, seq 2): the t=5 event and the first t=10 one.
    executed = queue.run_until_key(10, 2)
    assert executed == 2
    assert fired == [(5, "a"), (10, "b")]
    assert queue.now == 10
    queue.run()
    assert fired[-1] == (10, "c")


def test_popped_events_counts_only_executed_events():
    queue = EventQueue()
    dropped = queue.schedule(1, lambda t, p: None)
    dropped.cancel()
    for time in (2, 3, 4):
        queue.schedule(time, lambda t, p: None)
    queue.run()
    assert queue.popped_events == 3


def test_heap_compacts_when_cancelled_entries_dominate():
    queue = EventQueue()
    keeper = queue.schedule(10**6, lambda t, p: None)
    threshold = EventQueue._COMPACT_MIN_CANCELLED
    for i in range(threshold):
        queue.schedule(i + 1, lambda t, p: None).cancel()
    # The compaction threshold has been crossed: only the live event may
    # remain in the underlying heap.
    assert len(queue) == 1
    assert len(queue._heap) == 1
    assert queue._heap[0][4] is keeper
    # The queue still behaves normally afterwards.
    fired = []
    queue.schedule(5, lambda t, p: fired.append(t))
    queue.run()
    assert fired == [5]
