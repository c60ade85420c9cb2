"""Unit tests for the refresh-timer calendar (the simulator's event queue)."""

from __future__ import annotations

import pytest

from repro.utils.events import EventQueue


@pytest.fixture
def queue():
    return EventQueue(bucket_cycles=16)


def test_events_fire_in_time_order():
    queue = EventQueue()
    fired = []
    queue.schedule(30, 30, lambda t, p: fired.append((t, p)), payload="c")
    queue.schedule(10, 10, lambda t, p: fired.append((t, p)), payload="a")
    queue.schedule(20, 20, lambda t, p: fired.append((t, p)), payload="b")
    queue.run()
    assert fired == [(10, "a"), (20, "b"), (30, "c")]


def test_ties_break_by_insertion_order():
    queue = EventQueue()
    fired = []
    for label in ("first", "second", "third"):
        queue.schedule(5, 5, lambda t, p: fired.append(p), payload=label)
    queue.run()
    assert fired == ["first", "second", "third"]


def test_run_until_stops_before_later_events():
    queue = EventQueue()
    fired = []
    queue.schedule(10, 10, lambda t, p: fired.append(10))
    queue.schedule(20, 20, lambda t, p: fired.append(20))
    executed = queue.run(until=15)
    assert executed == 1
    assert fired == [10]
    # The remaining timer is still there and runs later.
    queue.run()
    assert fired == [10, 20]


def test_run_until_key_executes_strictly_before_the_key():
    queue = EventQueue()
    fired = []
    queue.schedule(5, 5, lambda t, p: fired.append((t, "a")))
    queue.schedule(10, 10, lambda t, p: fired.append((t, "b")))
    # The drain at 5 is keyed before any key at time 10 ...
    assert queue.run_until_key(10, 0) == 1
    assert fired == [(5, "a")]
    # ... and re-arms at 10 under a fresh key, which an equal key does not
    # pass and the next key does.
    time, seq = queue.armed
    assert time == 10
    assert queue.run_until_key(time, seq) == 0
    assert fired == [(5, "a")]
    assert queue.run_until_key(time, seq + 1) == 1
    assert fired == [(5, "a"), (10, "b")]
    assert queue.armed is None


def test_armed_key_draws_from_the_reference_counter():
    """The replay loop keys references with the queue's own counter."""
    queue = EventQueue()
    queue.schedule(40, 40, lambda t, p: None)
    _, armed_seq = queue.armed
    reference_seq = next(queue._counter)
    assert reference_seq > armed_seq
    # A timer armed after that reference's key is ordered after it.
    queue.schedule(8, 8, lambda t, p: None)
    assert queue.armed == (8, reference_seq + 1)


class TestScheduling:
    def test_exact_timer_fires_at_its_deadline(self, queue):
        fired = []
        queue.schedule(37, 37, lambda t, p: fired.append((t, p)), payload="x")
        queue.run()
        assert fired == [(37, "x")]

    def test_deadline_before_ready_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.schedule(10, 9, lambda t, p: None)

    def test_invalid_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(bucket_cycles=0)

    def test_next_deadline(self, queue):
        assert queue.next_deadline() is None
        assert queue.armed is None
        queue.schedule(40, 50, lambda t, p: None)
        queue.schedule(20, 30, lambda t, p: None)
        assert queue.next_deadline() == 30
        assert queue.armed[0] == 30

    def test_clear_drops_every_timer_and_the_armed_event(self, queue):
        fired = []
        queue.schedule(20, 20, lambda t, p: fired.append(t))
        queue.schedule(40, 50, lambda t, p: fired.append(t))
        queue.run(until=20)
        scans = queue.scans
        queue.clear()
        assert queue.next_deadline() is None
        assert queue.armed is None
        assert queue.run() == 0
        assert fired == [20]
        # The counters survive.
        assert queue.drains == 1
        assert queue.scans == scans == 1

    def test_earlier_deadline_rearms_the_queue_event(self, queue):
        fired = []
        queue.schedule(100, 100, lambda t, p: fired.append(p), payload="late")
        assert queue.armed[0] == 100
        queue.schedule(10, 10, lambda t, p: fired.append(p), payload="early")
        assert queue.armed[0] == 10
        # A later deadline leaves the armed key alone.
        armed = queue.armed
        queue.schedule(60, 60, lambda t, p: fired.append(p), payload="middle")
        assert queue.armed == armed
        queue.run(until=10)
        assert fired == ["early"]
        queue.run()
        assert fired == ["early", "middle", "late"]


class TestBatching:
    def test_one_queue_event_drains_a_shared_deadline(self, queue):
        fired = []
        for label in ("a", "b", "c"):
            queue.schedule(40, 40, lambda t, p: fired.append(p), payload=label)
        executed = queue.run()
        assert executed == 1  # one drain serves all three timers
        assert fired == ["a", "b", "c"]
        assert (queue.drains, queue.scans) == (1, 3)

    def test_lazy_timers_ride_along_with_an_exact_one(self):
        queue = EventQueue(bucket_cycles=64)
        fired = []
        # A lazy timer ready at 30 with slack to 60 is served by the exact
        # timer's drain at 40 -- after its ready time, before its deadline.
        queue.schedule(30, 60, lambda t, p: fired.append((t, "lazy")))
        queue.schedule(40, 40, lambda t, p: fired.append((t, "exact")))
        executed = queue.run()
        assert executed == 1
        assert [entry[1] for entry in fired] == ["lazy", "exact"]
        assert all(t == 40 for t, _ in fired)

    def test_not_ready_timers_stay_for_a_later_drain(self):
        queue = EventQueue(bucket_cycles=64)
        fired = []
        queue.schedule(40, 40, lambda t, p: fired.append((t, "exact")))
        # Same bucket, but not ready until 50: must not be served at 40.
        queue.schedule(50, 60, lambda t, p: fired.append((t, "later")))
        queue.run(until=40)
        assert fired == [(40, "exact")]
        assert queue.next_deadline() == 60
        queue.run()
        assert fired == [(40, "exact"), (60, "later")]

    def test_timer_is_never_served_after_its_deadline(self):
        queue = EventQueue(bucket_cycles=8)
        served = []
        queue.schedule(10, 14, lambda t, p: served.append((t, p)), payload=14)
        queue.schedule(11, 30, lambda t, p: served.append((t, p)), payload=30)
        queue.run()
        assert len(served) == 2
        assert all(fire <= deadline for fire, deadline in served)

    def test_timer_scheduled_by_a_callback_fires_later(self, queue):
        fired = []

        def recurring(cycle, payload):
            fired.append(cycle)
            if len(fired) < 3:
                queue.schedule(cycle + 100, cycle + 100, recurring)

        queue.schedule(100, 100, recurring)
        queue.run()
        assert fired == [100, 200, 300]
        assert queue.drains == 3

    def test_drain_order_is_bucket_then_insertion(self):
        queue = EventQueue(bucket_cycles=8)
        fired = []
        # Two buckets' worth of timers, all ready well before any deadline.
        queue.schedule(4, 20, lambda t, p: fired.append(p), payload="b2-first")
        queue.schedule(3, 12, lambda t, p: fired.append(p), payload="b1-first")
        queue.schedule(5, 21, lambda t, p: fired.append(p), payload="b2-second")
        queue.schedule(2, 13, lambda t, p: fired.append(p), payload="b1-second")
        # The drain at 12 visits buckets up to 12 // 8 only: the ready
        # timers parked in the later bucket wait for their own deadline.
        queue.run(until=12)
        assert fired == ["b1-first", "b1-second"]
        queue.run()
        assert fired == ["b1-first", "b1-second", "b2-first", "b2-second"]


class TestControllerIntegration:
    def test_shared_queue_coalesces_controllers(self, tiny_architecture):
        """All 64 controllers' first timers drain from a few drains."""
        from repro.config.parameters import SimulationConfig
        from repro.hierarchy.hierarchy import CacheHierarchy
        from repro.refresh.controller import build_refresh_controllers
        from tests.conftest import make_refresh_config

        refresh = make_refresh_config(tiny_architecture, retention_cycles=400)
        config = SimulationConfig.edram(refresh, tiny_architecture)
        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        controllers = build_refresh_controllers(hierarchy, config, events)
        assert {controller.events for controller in controllers} == {events}
        for controller in controllers:
            controller.start(0)
        # One timer per sentry group is armed; the first round of them is
        # served by far fewer drains than there are controllers.
        timers = sum(len(controller.groups) for controller in controllers)
        assert timers > len(controllers)
        first_round = max(
            controller.config.sentry_retention_cycles + controller._slack
            for controller in controllers
        )
        events.run(until=first_round)
        assert events.scans >= timers
        assert events.drains < len(controllers)


class TestRearmByReturnValue:
    """A callback's return value re-arms its own timer."""

    def test_returned_cycle_rearms_with_the_entrys_own_slack(self, queue):
        fired = []

        def handler(cycle, payload):
            fired.append((cycle, payload))
            return 90 if len(fired) == 1 else None

        queue.schedule(20, 24, handler, payload="g")
        queue.run(until=50)
        assert fired == [(24, "g")]
        # Slack (deadline - ready == 4) is carried over to the new entry.
        assert queue.next_deadline() == 94
        assert queue.armed[0] == 94
        queue.run()
        assert fired == [(24, "g"), (94, "g")]

    def test_none_drops_the_entry(self, queue):
        fired = []
        queue.schedule(10, 10, lambda t, p: fired.append(t))
        assert queue.run() == 1
        assert fired == [10]
        assert queue.next_deadline() is None
        assert queue.armed is None

    def test_rearm_into_a_visited_bucket_waits_for_the_next_drain(self):
        queue = EventQueue(bucket_cycles=64)
        served = []

        def handler(cycle, payload):
            served.append((queue.drains, cycle))
            # Ready again at once, in the bucket this drain just emptied.
            return cycle if len(served) == 1 else None

        queue.schedule(40, 40, handler)
        queue.run()
        assert served == [(1, 40), (2, 40)]

    def test_bucket_then_insertion_order_holds_across_rearms(self, queue):
        order = []

        def handler(cycle, payload):
            order.append((cycle, payload))
            return cycle + 16 if cycle < 32 else None

        for label in ("a", "b", "c"):
            queue.schedule(16, 16, handler, payload=label)
        # Bucket 2, inserted before a, b and c are re-armed into it.
        queue.schedule(20, 40, handler, payload="d")
        queue.run()
        assert order == [
            (16, "a"), (16, "b"), (16, "c"),
            (32, "d"), (32, "a"), (32, "b"), (32, "c"),
        ]

    def test_next_deadline_and_clear_follow_the_bucket_heap(self):
        queue = EventQueue(bucket_cycles=8)
        for deadline in (50, 17, 33, 18):
            queue.schedule(deadline - 2, deadline, lambda t, p: None)
        assert queue.next_deadline() == 17
        queue.run(until=17)  # serves bucket 2: deadlines 17 and 18
        assert queue.scans == 2
        assert queue.next_deadline() == 33
        queue.clear()
        assert queue.next_deadline() is None
        fired = []
        queue.schedule(60, 60, lambda t, p: fired.append(t))
        assert queue.next_deadline() == 60
        queue.run()
        assert fired == [60]
