"""Unit tests for the refresh timer wheel."""

from __future__ import annotations

import pytest

from repro.utils.events import EventQueue
from repro.utils.wheel import RefreshWheel


@pytest.fixture
def queue():
    return EventQueue()


def drain_all(queue, until=None):
    return queue.run(until=until)


class TestScheduling:
    def test_exact_timer_fires_at_its_deadline(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        wheel.schedule(37, 37, lambda t, p: fired.append((t, p)), payload="x")
        queue.run()
        assert fired == [(37, "x")]

    def test_deadline_before_ready_rejected(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        with pytest.raises(ValueError):
            wheel.schedule(10, 9, lambda t, p: None)

    def test_invalid_bucket_width_rejected(self, queue):
        with pytest.raises(ValueError):
            RefreshWheel(queue, bucket_cycles=0)

    def test_len_and_next_deadline(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        assert len(wheel) == 0
        assert wheel.next_deadline() is None
        wheel.schedule(40, 50, lambda t, p: None)
        wheel.schedule(20, 30, lambda t, p: None)
        assert len(wheel) == 2
        assert wheel.next_deadline() == 30

    def test_clear_drops_every_timer_and_the_armed_event(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        wheel.schedule(20, 20, lambda t, p: fired.append(t))
        wheel.schedule(40, 50, lambda t, p: fired.append(t))
        queue.run(until=20)
        wheel.clear()
        assert len(wheel) == 0
        assert wheel.next_deadline() is None
        assert len(queue) == 0
        queue.run()
        assert fired == [20]
        assert wheel.drains == 1

    def test_earlier_deadline_rearms_the_queue_event(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        wheel.schedule(100, 100, lambda t, p: fired.append(p), payload="late")
        wheel.schedule(10, 10, lambda t, p: fired.append(p), payload="early")
        queue.run(until=10)
        assert fired == ["early"]
        queue.run()
        assert fired == ["early", "late"]


class TestBatching:
    def test_one_queue_event_drains_a_shared_deadline(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        for label in ("a", "b", "c"):
            wheel.schedule(40, 40, lambda t, p: fired.append(p), payload=label)
        executed = queue.run()
        assert executed == 1  # one drain serves all three timers
        assert fired == ["a", "b", "c"]

    def test_lazy_timers_ride_along_with_an_exact_one(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=64)
        fired = []
        # A lazy timer ready at 30 with slack to 60 is served by the exact
        # timer's drain at 40 -- after its ready time, before its deadline.
        wheel.schedule(30, 60, lambda t, p: fired.append((t, "lazy")))
        wheel.schedule(40, 40, lambda t, p: fired.append((t, "exact")))
        executed = queue.run()
        assert executed == 1
        assert [entry[1] for entry in fired] == ["lazy", "exact"]
        assert all(t == 40 for t, _ in fired)

    def test_not_ready_timers_stay_for_a_later_drain(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=64)
        fired = []
        wheel.schedule(40, 40, lambda t, p: fired.append((t, "exact")))
        # Same bucket, but not ready until 50: must not be served at 40.
        wheel.schedule(50, 60, lambda t, p: fired.append((t, "later")))
        queue.run(until=40)
        assert fired == [(40, "exact")]
        assert len(wheel) == 1
        queue.run()
        assert fired == [(40, "exact"), (60, "later")]

    def test_timer_is_never_served_after_its_deadline(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=8)
        served = []
        wheel.schedule(10, 14, lambda t, p: served.append(t))
        wheel.schedule(11, 30, lambda t, p: served.append(t))
        queue.run()
        assert all(
            fire <= deadline
            for fire, deadline in zip(served, (14, 30))
        )

    def test_reschedule_during_drain_rearms_once(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []

        def recurring(cycle, payload):
            fired.append(cycle)
            if len(fired) < 3:
                wheel.schedule(cycle + 100, cycle + 100, recurring)

        wheel.schedule(100, 100, recurring)
        queue.run()
        assert fired == [100, 200, 300]

    def test_drain_order_is_bucket_then_insertion(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=8)
        fired = []
        # Two buckets' worth of timers, all ready well before any deadline.
        wheel.schedule(4, 20, lambda t, p: fired.append(p), payload="b2-first")
        wheel.schedule(3, 12, lambda t, p: fired.append(p), payload="b1-first")
        wheel.schedule(5, 21, lambda t, p: fired.append(p), payload="b2-second")
        wheel.schedule(2, 13, lambda t, p: fired.append(p), payload="b1-second")
        # The drain at 12 visits buckets up to 12 // 8 only: the ready
        # timers parked in the later bucket wait for their own deadline.
        queue.run(until=12)
        assert fired == ["b1-first", "b1-second"]
        queue.run()
        assert fired == ["b1-first", "b1-second", "b2-first", "b2-second"]


class TestControllerIntegration:
    def test_shared_wheel_coalesces_controllers(self, tiny_architecture):
        """All 64 controllers' first timers drain from a few queue events."""
        from repro.config.parameters import SimulationConfig
        from repro.hierarchy.hierarchy import CacheHierarchy
        from repro.refresh.controller import build_refresh_controllers
        from tests.conftest import make_refresh_config

        refresh = make_refresh_config(tiny_architecture, retention_cycles=400)
        config = SimulationConfig.edram(refresh, tiny_architecture)
        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        controllers = build_refresh_controllers(hierarchy, config, events)
        wheels = {controller.wheel for controller in controllers}
        assert len(wheels) == 1
        assert hierarchy.refresh_wheel is next(iter(wheels))
        for controller in controllers:
            controller.start(0)
        # One timer per sentry group was scheduled, but the queue holds far
        # fewer events than that (a single armed drain, in fact).
        assert len(hierarchy.refresh_wheel) > len(controllers)
        assert len(events) == 1

    def test_standalone_controller_builds_its_own_wheel(self, tiny_architecture):
        from repro.hierarchy.hierarchy import CacheHierarchy
        from repro.refresh.refrint import RefrintRefreshController
        from repro.refresh.policies import ValidPolicy
        from tests.conftest import make_refresh_config

        hierarchy = CacheHierarchy(tiny_architecture)
        events = EventQueue()
        refresh = make_refresh_config(tiny_architecture, retention_cycles=400)
        controller = RefrintRefreshController(
            "l3", 0, hierarchy.banks[0].cache, ValidPolicy(), refresh,
            hierarchy, events,
        )
        assert controller.wheel is not None
        controller.start(0)
        assert controller.wheel.next_deadline() is not None


class TestDueProbe:
    """Per-group due-time probes: skip-and-rearm instead of serving."""

    def test_probe_none_serves_the_entry(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        wheel.schedule(
            20, 25, lambda t, p: fired.append((t, p)), payload="g",
            probe=lambda cycle, payload: None,
        )
        queue.run()
        assert fired == [(25, "g")]
        assert wheel.skips == 0

    def test_probe_reschedules_without_serving(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        answers = iter([90, None])  # first service: nothing due until 90

        def probe(cycle, payload):
            return next(answers)

        wheel.schedule(
            20, 24, lambda t, p: fired.append((t, p)), payload="g", probe=probe
        )
        queue.run(until=50)
        assert fired == []
        assert wheel.skips == 1
        assert len(wheel) == 1
        # Slack (deadline - ready == 4) is preserved across the re-bucket.
        assert wheel.next_deadline() == 94
        queue.run()
        assert fired == [(94, "g")]

    def test_skipped_entry_keeps_payload_and_probe(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=8)
        seen = []

        def probe(cycle, payload):
            seen.append((cycle, payload))
            return cycle + 30 if len(seen) < 3 else None

        fired = []
        wheel.schedule(10, 10, lambda t, p: fired.append(p), "grp", probe)
        queue.run()
        assert [p for _, p in seen] == ["grp", "grp", "grp"]
        assert wheel.skips == 2
        assert fired == ["grp"]

    def test_entries_without_probe_are_unaffected(self, queue):
        wheel = RefreshWheel(queue, bucket_cycles=16)
        fired = []
        wheel.schedule(10, 10, lambda t, p: fired.append("plain"))
        wheel.schedule(
            10, 10, lambda t, p: fired.append("probed"),
            probe=lambda cycle, payload: None,
        )
        queue.run()
        assert fired == ["plain", "probed"]


class TestRefrintProbeEquivalence:
    """The Refrint group probe skips exactly the no-due-work scans."""

    def test_probe_skips_are_unobservable(self, tiny_architecture, monkeypatch):
        # A simulation with due probes active must be byte-identical to the
        # same simulation with every entry forced through the handlers
        # (probe disabled), and the probed run must actually skip scans --
        # otherwise an over-eager probe could diverge identically in every
        # replay mode and no equivalence test would notice.
        import json

        from repro.config.parameters import (
            DataPolicySpec, RefreshConfig, SimulationConfig, TimingPolicyKind,
        )
        from repro.config.presets import scaled_retention_cycles
        from repro.core.simulator import RefrintSimulator
        from repro.refresh.refrint import RefrintRefreshController
        from repro.workloads.suite import build_application

        architecture = tiny_architecture
        retention = scaled_retention_cycles(50.0)
        refresh = RefreshConfig(
            retention_cycles=retention,
            sentry_margin_cycles=RefreshConfig.derive_sentry_margin(
                architecture.l3_bank.num_lines, retention
            ),
            timing_policy=TimingPolicyKind.REFRINT,
            l3_data_policy=DataPolicySpec.writeback(4, 4),
        )
        config = SimulationConfig.edram(refresh, architecture)
        workload = build_application("fft", architecture, length_scale=0.02)

        wheels = []
        original_init = RefreshWheel.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            wheels.append(self)

        monkeypatch.setattr(RefreshWheel, "__init__", tracking_init)

        probed = RefrintSimulator(config).run(workload)
        assert wheels and sum(w.skips for w in wheels) > 0, (
            "the probe never skipped a scan; the test exercises nothing"
        )

        wheels.clear()
        monkeypatch.setattr(
            RefrintRefreshController,
            "_group_probe",
            lambda self, cycle, payload: None,  # always serve the handler
        )
        unprobed = RefrintSimulator(config).run(workload)
        assert wheels and sum(w.skips for w in wheels) == 0

        canonical = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
        assert canonical(probed) == canonical(unprobed)
