"""Tests for the streaming campaign pipeline.

Covers the executor-side scheduling primitives (one-time grouping,
work-stealing chunk planning), the incremental-commit contract of
:class:`CampaignStream` (each result is durably in the store before the
consumer sees it), and the store-backed :class:`StoreSweep` aggregation
that keeps figure generation bounded in memory.
"""

from __future__ import annotations

from collections import deque

import pytest

import repro.campaign.executors as executors_module
from repro.campaign.engine import CampaignStream, run_campaign, stream_campaign
from repro.campaign.executors import (
    CHUNK_CAP,
    ParallelExecutor,
    SerialExecutor,
    group_jobs_by_workload,
    plan_chunk,
)
from repro.campaign.jobs import Job, enumerate_jobs
from repro.campaign.segments import SegmentResultStore
from repro.campaign.view import StoreSweep
from repro.config.parameters import (
    DataPolicySpec,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture
from repro.core.sweep import PolicyPoint
from repro.workloads.suite import WorkloadRequest

POINTS = [
    PolicyPoint(50.0, TimingPolicyKind.PERIODIC, DataPolicySpec.all_lines()),
    PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.writeback(32, 32)),
]

LENGTH_SCALE = 0.05


@pytest.fixture(scope="module")
def arch():
    return scaled_architecture()


@pytest.fixture(scope="module")
def requests():
    return [WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE)]


@pytest.fixture(scope="module")
def jobs(arch, requests):
    return enumerate_jobs(requests, POINTS, arch)


def fake_jobs(arch, applications, per_app):
    """Cheap Job objects (never executed) spanning several workload groups."""
    out = []
    for name in applications:
        request = WorkloadRequest(name, length_scale=LENGTH_SCALE)
        config = SimulationConfig.sram(arch)
        out.extend(Job(request, config) for _ in range(per_app))
    return out


class TestGrouping:
    def test_groups_preserve_enumeration_order(self, arch):
        jobs = fake_jobs(arch, ["fft", "barnes"], per_app=3)
        grouped = group_jobs_by_workload(jobs)
        assert len(grouped) == 2
        regrouped = [job for group in grouped.values() for job in group]
        assert regrouped == jobs  # per-group order is submission order

    def test_parallel_run_groups_only_once(self, arch, monkeypatch):
        """The full-list grouping pass must not repeat per refill."""
        jobs = fake_jobs(arch, ["fft", "barnes", "ocean"], per_app=7)
        calls = []
        original = group_jobs_by_workload

        def counting(job_list):
            calls.append(len(job_list))
            return original(job_list)

        monkeypatch.setattr(
            executors_module, "group_jobs_by_workload", counting
        )
        monkeypatch.setattr(
            executors_module, "execute_job_batch", lambda chunk: [None] * len(chunk)
        )

        class InlinePool:
            """Runs submissions synchronously; no worker processes."""

            def submit(self, fn, *args):
                from concurrent.futures import Future

                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True):
                pass

        executor = ParallelExecutor(max_workers=2)
        executor._pool = InlinePool()
        drained = list(executor.run(jobs))
        assert len(drained) == len(jobs)
        assert calls == [len(jobs)]  # one grouping pass for the whole run


class TestPlanChunk:
    def test_steals_from_longest_queue(self):
        short = deque(["s1", "s2"])
        long = deque([f"l{i}" for i in range(10)])
        chunk = plan_chunk([short, long], max_workers=2)
        assert all(item.startswith("l") for item in chunk)
        assert chunk == ["l0", "l1", "l2"]  # ceil(10 / 4), front of the queue

    def test_chunk_respects_cap_and_minimum(self):
        huge = deque(range(10_000))
        assert len(plan_chunk([huge], max_workers=1)) == CHUNK_CAP
        tiny = deque([1])
        assert plan_chunk([tiny], max_workers=8) == [1]
        assert plan_chunk([deque()], max_workers=8) == []
        assert plan_chunk([], max_workers=8) == []

    def test_draining_preserves_within_group_order(self):
        queue = deque(range(100))
        drained = []
        while True:
            chunk = plan_chunk([queue], max_workers=4)
            if not chunk:
                break
            drained.extend(chunk)
        assert drained == list(range(100))


class RecordingStore(SegmentResultStore):
    """A store that logs the order of puts for commit-order assertions."""

    def __init__(self, root):
        super().__init__(root)
        self.put_log = []

    def put_record(self, key, payload):
        self.put_log.append(key)
        return super().put_record(key, payload)


class StubExecutor:
    """Replays canned results without simulating (submission order)."""

    def __init__(self, results_by_key):
        self._results = results_by_key

    def run(self, jobs, progress=None):
        for job in jobs:
            yield job, self._results[job.key()]


@pytest.fixture(scope="module")
def canned(arch, requests, jobs, tmp_path_factory):
    """One real campaign's results, keyed by job hash, for stub replay."""
    root = tmp_path_factory.mktemp("canned")
    sweep, _ = run_campaign(
        requests, points=POINTS, architecture=arch, store=root / "store",
    )
    store = SegmentResultStore(root / "store")
    return {key: store.get(key) for key in store.keys()}, sweep


class TestCampaignStream:
    def test_each_result_commits_before_it_is_yielded(
        self, tmp_path, jobs, canned
    ):
        results, _ = canned
        store = RecordingStore(tmp_path / "store")
        stream = CampaignStream(
            list(jobs), StubExecutor(results), store, resume=False, progress=None,
        )
        seen = []
        for job, _result in stream:
            # The contract that makes a kill lose only in-flight jobs: by the
            # time the consumer sees a result, it is already in the store.
            assert job.key() in store
            seen.append(job.key())
        assert store.put_log == seen  # committed one-by-one, in yield order
        assert stream.stats.executed == len(jobs)
        assert stream.stats.reused == 0

    def test_resume_yields_cached_results_without_executing(
        self, tmp_path, jobs, canned
    ):
        results, _ = canned
        store = SegmentResultStore(tmp_path / "store")
        cached_job = jobs[0]
        store.put(cached_job, results[cached_job.key()])

        class ExplodingExecutor(StubExecutor):
            def run(self, pending, progress=None):
                assert cached_job not in pending  # cached job never re-runs
                yield from super().run(pending, progress)

        stream = CampaignStream(
            list(jobs), ExplodingExecutor(results), store, resume=True,
            progress=None,
        )
        drained = dict((job.key(), result) for job, result in stream)
        assert len(drained) == len(jobs)
        assert stream.stats.reused == 1
        assert stream.stats.executed == len(jobs) - 1

    def test_stats_count_duplicate_jobs_once(self, tmp_path, jobs, canned):
        results, _ = canned
        doubled = list(jobs) + [jobs[0]]
        stream = CampaignStream(
            doubled, StubExecutor(results), None, resume=False, progress=None,
        )
        assert len(list(stream)) == len(jobs)
        assert stream.stats.duplicates == 1
        assert stream.stats.total == len(doubled)

    def test_stream_campaign_smoke(self, arch, requests, tmp_path, canned):
        """End-to-end: stream_campaign commits incrementally to a real store."""
        _, sweep_before = canned
        stream = stream_campaign(
            requests, points=POINTS, architecture=arch,
            store=tmp_path / "store",
        )
        store = stream.store
        seen = 0
        for _job, _result in stream:
            seen += 1
            assert len(store) == seen  # committed the moment it completed
        assert stream.stats.executed == 3
        view = StoreSweep(store, stream.jobs, POINTS)
        assert view.materialise().to_dict() == sweep_before.to_dict()


class TestStoreSweep:
    @pytest.fixture()
    def view(self, tmp_path, jobs, canned):
        results, _ = canned
        store = SegmentResultStore(tmp_path / "store")
        for job in jobs:
            store.put(job, results[job.key()])
        return StoreSweep(store, jobs, POINTS, result_cache=1)

    def test_matches_in_memory_sweep(self, view, canned):
        _, sweep_before = canned
        assert view.to_dict() == sweep_before.to_dict()

    def test_normalised_metrics_match(self, view, canned):
        _, sweep_before = canned
        for point in POINTS:
            assert view.normalised_memory_energy(
                point
            ) == sweep_before.normalised_memory_energy(point)
            assert view.normalised_execution_time(
                point
            ) == sweep_before.normalised_execution_time(point)

    def test_point_cache_is_bounded(self, view):
        for point in POINTS:
            view.result("blackscholes", point)
        assert len(view._result_cache) == 1  # LRU held at result_cache=1

    def test_baselines_membership_without_loading(self, tmp_path, jobs):
        # An empty store: membership checks must not touch any result.
        store = SegmentResultStore(tmp_path / "empty")
        view = StoreSweep(store, jobs, POINTS)
        assert "blackscholes" in view.baselines
        assert "fft" not in view.baselines
        assert list(view.baselines) == ["blackscholes"]
        assert view.applications == ["blackscholes"]
        assert {job.key() for job in jobs}.isdisjoint(store.keys())

    def test_missing_cell_raises_key_error(self, tmp_path, jobs):
        store = SegmentResultStore(tmp_path / "empty")
        view = StoreSweep(store, jobs, POINTS)
        with pytest.raises(KeyError, match="not in store"):
            view.baseline("blackscholes")

    def test_store_holds_every_cell_when_complete(self, view, jobs):
        assert {job.key() for job in jobs} <= set(view.store.keys())

    def test_lazy_baselines_is_a_full_mapping(self, view, canned):
        from collections.abc import Mapping

        _, sweep_before = canned
        real = sweep_before.baselines
        lazy = view.baselines
        assert isinstance(lazy, Mapping)
        assert set(lazy.keys()) == set(real.keys())
        assert lazy.get("blackscholes").to_dict() == real["blackscholes"].to_dict()
        assert lazy.get("no-such-app") is None
        assert lazy.get("no-such-app", "fallback") == "fallback"
        assert [r.to_dict() for r in lazy.values()] == [
            r.to_dict() for r in real.values()
        ]
        assert {name: r.to_dict() for name, r in lazy.items()} == {
            name: r.to_dict() for name, r in real.items()
        }


class TestParallelStreaming:
    def test_parallel_matches_serial(self, arch, requests, canned):
        """Completion-ordered parallel streaming is bit-identical to serial."""
        results, sweep_before = canned
        with ParallelExecutor(max_workers=2) as executor:
            sweep, stats = run_campaign(
                requests, points=POINTS, architecture=arch, executor=executor,
            )
        assert stats.executed == 3
        assert sweep.to_dict() == sweep_before.to_dict()

    def test_pool_persists_across_runs(self, arch, requests, canned):
        _, sweep_before = canned
        executor = ParallelExecutor(max_workers=2)
        try:
            run_campaign(
                requests, points=POINTS[:1], architecture=arch, executor=executor,
            )
            pool_first = executor._pool
            assert pool_first is not None
            sweep, _ = run_campaign(
                requests, points=POINTS, architecture=arch, executor=executor,
            )
            assert executor._pool is pool_first  # same workers, no refork
            assert sweep.to_dict() == sweep_before.to_dict()
        finally:
            executor.shutdown()
        assert executor._pool is None
