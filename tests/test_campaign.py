"""Tests for the campaign engine: jobs, store, executors, resume."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import sys
import threading
import time
import typing
from collections import OrderedDict

import pytest

import repro.campaign.executors as executors
import repro.campaign.jobs as jobs_module
from repro.campaign.engine import CampaignStats, make_executor, run_campaign
from repro.campaign.executors import (
    ParallelExecutor,
    SerialExecutor,
    build_workload,
    execute_job,
)
from repro.campaign.jobs import (
    Job,
    canonical_value,
    enumerate_jobs,
    hash_payload_digest,
)
from repro.campaign.segments import SegmentResultStore
from repro.campaign.store import open_store
from repro.config.parameters import (
    ArchitectureConfig,
    CacheGeometry,
    DataPolicySpec,
    RefreshConfig,
    SimulationConfig,
    TimingPolicyKind,
)
from repro.config.presets import scaled_architecture
from repro.core.sweep import PolicyPoint, SweepResult, default_policy_points
from repro.core.results import SimulationResult
from repro.workloads.suite import WorkloadRequest

#: A deliberately tiny grid so every test in this module runs in seconds.
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
def serial_sweep(arch, requests):
    sweep, stats = run_campaign(requests, points=POINTS, architecture=arch)
    return sweep, stats


class TestJobs:
    def test_enumeration_order_and_labels(self, arch, requests):
        jobs = enumerate_jobs(requests, POINTS, arch)
        assert len(jobs) == 1 + len(POINTS)
        assert jobs[0].is_baseline and jobs[0].label == "SRAM baseline"
        assert [job.point_label for job in jobs[1:]] == [p.label for p in POINTS]
        assert all(job.application == "blackscholes" for job in jobs)

    def test_keys_are_content_addressed(self, arch, requests):
        jobs = enumerate_jobs(requests, POINTS, arch)
        keys = [job.key() for job in jobs]
        assert len(set(keys)) == len(keys)  # distinct configs -> distinct keys
        # Re-enumerating yields the same hashes (stable content addressing).
        again = enumerate_jobs(requests, POINTS, arch)
        assert [job.key() for job in again] == keys

    def test_key_changes_with_workload_recipe(self, arch):
        base = Job(WorkloadRequest("fft"), SimulationConfig.sram(arch))
        rescaled = Job(
            WorkloadRequest("fft", length_scale=2.0), SimulationConfig.sram(arch)
        )
        reseeded = Job(WorkloadRequest("fft", seed=7), SimulationConfig.sram(arch))
        assert len({base.key(), rescaled.key(), reseeded.key()}) == 3

    def test_jobs_are_picklable(self, arch, requests):
        for job in enumerate_jobs(requests, POINTS, arch):
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert clone.key() == job.key()

    def test_canonical_value_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_value(object())


def _dataclass_types(cls, found):
    """Collect every dataclass type reachable from ``cls``'s field hints."""
    if cls in found:
        return found
    found.add(cls)
    pending = list(typing.get_type_hints(cls).values())
    while pending:
        hint = pending.pop()
        pending.extend(typing.get_args(hint))
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            _dataclass_types(hint, found)
    return found


def _dataclass_instances(obj):
    """Every dataclass instance reachable from ``obj`` through its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield obj
        for field in dataclasses.fields(obj):
            yield from _dataclass_instances(getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _dataclass_instances(item)


class TestJobKeyContract:
    """``store verify`` re-derives every stored key from its hash payload,
    so a key must always be the digest of its own job's payload -- also
    when the digest memo has already seen an *equal* job."""

    def test_key_is_the_digest_of_the_hash_payload(self, arch):
        request = WorkloadRequest("radix", length_scale=0.05, seed=31)
        jobs = enumerate_jobs([request], default_policy_points()[::10], arch)
        assert jobs[0].is_baseline and len(jobs) > 2
        for job in jobs:
            assert job.key() == hash_payload_digest(job.hash_payload())

    @pytest.mark.parametrize("int_first", [True, False])
    def test_equal_values_of_different_types_keep_their_own_keys(
        self, arch, int_first
    ):
        # 1 == 1.0 and 10**9 == 1e9, but they canonicalise to different
        # JSON; a fresh seed per order keeps both orders cold in the memo.
        seed = 601 if int_first else 602
        point = PolicyPoint(50.0, TimingPolicyKind.REFRINT, DataPolicySpec.valid())
        int_arch = dataclasses.replace(arch, frequency_hz=10**9)
        float_arch = dataclasses.replace(arch, frequency_hz=1e9)
        pairs = [
            (
                Job(WorkloadRequest("fft", length_scale=1, seed=seed),
                    SimulationConfig.sram(arch)),
                Job(WorkloadRequest("fft", length_scale=1.0, seed=seed),
                    SimulationConfig.sram(arch)),
            ),
            (
                Job(WorkloadRequest("fft", seed=seed),
                    point.simulation_config(int_arch), point.label),
                Job(WorkloadRequest("fft", seed=seed),
                    point.simulation_config(float_arch), point.label),
            ),
        ]
        for int_job, float_job in pairs:
            assert int_job == float_job  # equal values, different types
            first, second = (
                (int_job, float_job) if int_first else (float_job, int_job)
            )
            first_key, second_key = first.key(), second.key()
            assert first_key != second_key
            assert first_key == hash_payload_digest(first.hash_payload())
            assert second_key == hash_payload_digest(second.hash_payload())

    def test_a_rehashed_grid_is_served_from_the_memo(self, arch, monkeypatch):
        calls = []

        def counting_digest(payload):
            calls.append(payload)
            return hash_payload_digest(payload)

        monkeypatch.setattr(jobs_module, "hash_payload_digest", counting_digest)
        # A seed no other test uses: these 43 jobs are new to the memo.
        request = WorkloadRequest("ocean", length_scale=0.05, seed=90210)
        grid = default_policy_points()
        first = [job.key() for job in enumerate_jobs([request], grid, arch)]
        assert len(first) == 43 and len(calls) == 43
        second = [job.key() for job in enumerate_jobs([request], grid, arch)]
        assert second == first and len(calls) == 43

    def test_memo_keys_see_every_field(self, arch):
        """The memo keys on reprs, so each config dataclass must keep the
        generated repr, which shows every field with its own repr."""
        reachable = set()
        for root in (WorkloadRequest, SimulationConfig):
            _dataclass_types(root, reachable)
        nested = {ArchitectureConfig, CacheGeometry, RefreshConfig, DataPolicySpec}
        assert nested <= reachable
        roots = [WorkloadRequest("fft"), SimulationConfig.sram(arch)] + [
            point.simulation_config(arch) for point in default_policy_points()
        ]
        seen = set()
        for root in roots:
            for obj in _dataclass_instances(root):
                fields = dataclasses.fields(obj)
                assert all(field.repr for field in fields), type(obj).__name__
                shown = ", ".join(
                    f"{field.name}={getattr(obj, field.name)!r}" for field in fields
                )
                assert repr(obj) == f"{type(obj).__qualname__}({shown})"
                seen.add(type(obj))
        assert seen == reachable


class TestWorkloadRequest:
    def test_build_is_deterministic(self, arch):
        request = WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE)
        first = request.build(arch)
        second = request.build(arch)
        assert first.total_references() == second.total_references()
        for a, b in zip(first.traces, second.traces):
            assert a.records == b.records

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            WorkloadRequest("fft", length_scale=0.0)


class TestResultStore:
    def test_round_trip(self, tmp_path, arch, requests, serial_sweep):
        sweep, _ = serial_sweep
        store = open_store(tmp_path / "store")
        jobs = enumerate_jobs(requests, POINTS, arch)
        baseline = sweep.baseline("blackscholes")
        store.put(jobs[0], baseline)
        assert jobs[0].key() in store
        loaded = store.get(jobs[0].key())
        assert loaded is not None
        assert loaded.to_dict() == baseline.to_dict()
        assert loaded.label == "SRAM"

    def test_missing_and_corrupt_entries_are_none(
        self, tmp_path, arch, requests, serial_sweep
    ):
        sweep, _ = serial_sweep
        store = open_store(tmp_path / "store")
        assert store.get("deadbeef") is None
        job = enumerate_jobs(requests, POINTS, arch)[0]
        store.put(job, sweep.baseline("blackscholes"))
        store.flush()
        name, offset, length = store._index[job.key()]
        with store.segment_path(name).open("r+b") as handle:
            handle.seek(offset)
            handle.write(b"{not json" + b" " * (length - 9))
        assert SegmentResultStore(store.root).get(job.key()) is None

    def test_len_and_keys(self, tmp_path, arch, requests, serial_sweep):
        sweep, _ = serial_sweep
        store = open_store(tmp_path / "store")
        assert len(store) == 0
        jobs = enumerate_jobs(requests, POINTS, arch)
        store.put(jobs[0], sweep.baseline("blackscholes"))
        assert list(store.keys()) == [jobs[0].key()]


class TestExecutors:
    def test_parallel_matches_serial_bit_for_bit(self, arch, requests, serial_sweep):
        serial, _ = serial_sweep
        parallel, stats = run_campaign(
            requests,
            points=POINTS,
            architecture=arch,
            executor=ParallelExecutor(4),
        )
        assert stats.executed == stats.total
        assert parallel.to_dict() == serial.to_dict()

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        with pytest.raises(ValueError):
            make_executor(0)

    def test_execute_job_runs_baseline(self, arch, requests):
        job = enumerate_jobs(requests, POINTS, arch)[0]
        result = execute_job(job)
        assert result.label == "SRAM"
        assert result.execution_cycles > 0

    def test_workload_cache_survives_concurrent_batches(self, arch, monkeypatch):
        """The service runs executor batches in worker threads: one batch
        evicting a workload from the cache must not break another's lookup."""
        # Instant builds of more workloads than the cache holds keep lookups
        # racing evictions (unguarded, the first KeyError comes within
        # milliseconds).  The stub workloads go with the patched cache.
        monkeypatch.setattr(executors, "_WORKLOAD_CACHE", OrderedDict())
        monkeypatch.setattr(
            WorkloadRequest, "build", lambda self, architecture: object()
        )
        jobs = [
            Job(WorkloadRequest(name, seed=seed), SimulationConfig.sram(arch))
            for seed in range(executors._WORKLOAD_CACHE_MAX // 2 + 1)
            for name in ("fft", "blackscholes")
        ]
        errors = []
        deadline = time.monotonic() + 0.5

        def build(order):
            try:
                while time.monotonic() < deadline:
                    for job in order:
                        build_workload(job)
            except Exception as exc:
                errors.append(exc)

        # More threads than cores, half of them building in reverse order.
        count = max((os.cpu_count() or 1) + 2, 4)
        threads = [
            threading.Thread(
                target=build, args=(jobs[::-1] if index % 2 else jobs,), daemon=True
            )
            for index in range(count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, deadline + 1.0 - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)
        assert len(executors._WORKLOAD_CACHE) == executors._WORKLOAD_CACHE_MAX


class TestResume:
    def test_resume_executes_zero_new_simulations(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        first, stats1 = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        assert stats1.executed == stats1.total and stats1.reused == 0
        second, stats2 = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        assert stats2.executed == 0 and stats2.reused == stats2.total
        assert second.to_dict() == first.to_dict()

    def test_grid_extension_only_runs_new_points(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        extended = POINTS + [
            PolicyPoint(100.0, TimingPolicyKind.REFRINT, DataPolicySpec.valid())
        ]
        _, stats = run_campaign(
            requests, points=extended, architecture=arch, store=store_dir, resume=True
        )
        assert stats.reused == 1 + len(POINTS)
        assert stats.executed == 1  # only the new retention point

    def test_without_resume_store_is_write_only(self, tmp_path, arch, requests):
        store_dir = tmp_path / "store"
        run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=True
        )
        _, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=store_dir, resume=False
        )
        assert stats.executed == stats.total

    def test_duplicate_requests_simulate_once(self, arch):
        reqs = [
            WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE),
            WorkloadRequest("blackscholes", length_scale=LENGTH_SCALE),
        ]
        sweep, stats = run_campaign(reqs, points=POINTS, architecture=arch)
        assert stats.executed == 1 + len(POINTS)
        assert stats.duplicates == 1 + len(POINTS)
        assert sweep.applications == ["blackscholes"]

    def test_stats_summary_text(self):
        stats = CampaignStats(total=5, executed=2, reused=3)
        assert "2 simulated" in stats.summary()
        assert "3 reused" in stats.summary()
        assert "duplicates" not in stats.summary()
        assert "4 duplicates" in CampaignStats(5, 1, 0, 4).summary()


class TestSerialisationRoundTrips:
    def test_simulation_result_round_trip(self, serial_sweep):
        sweep, _ = serial_sweep
        for result in [sweep.baseline("blackscholes")] + list(
            sweep.results["blackscholes"].values()
        ):
            data = json.loads(json.dumps(result.to_dict()))
            restored = SimulationResult.from_dict(data)
            assert restored.to_dict() == result.to_dict()
            assert restored.label == result.label

    def test_sweep_result_round_trip(self, serial_sweep):
        sweep, _ = serial_sweep
        data = json.loads(json.dumps(sweep.to_dict()))
        restored = SweepResult.from_dict(data)
        assert restored.to_dict() == sweep.to_dict()
        assert restored.applications == sweep.applications
        assert [p.label for p in restored.points] == [p.label for p in sweep.points]

    def test_policy_point_label_round_trip(self):
        for point in default_policy_points():
            assert PolicyPoint.from_label(point.label) == point
        with pytest.raises(ValueError):
            PolicyPoint.from_label("50us/Q.sometimes")

    def test_policy_point_label_round_trip_awkward_retentions(self):
        # %g renders >= 1e6 us in scientific notation and truncates values
        # with more than 6 significant digits; both must round-trip exactly.
        for retention in (1e6, 2.5e-5, 123456.7, 1 / 3):
            point = PolicyPoint(
                retention, TimingPolicyKind.REFRINT, DataPolicySpec.valid()
            )
            assert PolicyPoint.from_label(point.label) == point

    def test_application_order_survives_sorted_json(self, arch):
        # json.dump(..., sort_keys=True) alphabetises the mappings; the
        # explicit "applications" key must preserve insertion order.
        reqs = [
            WorkloadRequest(name, length_scale=LENGTH_SCALE)
            for name in ("fft", "barnes")
        ]
        sweep, _ = run_campaign(reqs, points=POINTS[:1], architecture=arch)
        assert sweep.applications == ["fft", "barnes"]
        sorted_json = json.dumps(sweep.to_dict(), sort_keys=True)
        restored = SweepResult.from_dict(json.loads(sorted_json))
        assert restored.applications == ["fft", "barnes"]

    def test_restored_result_supports_normalisation(self, serial_sweep):
        sweep, _ = serial_sweep
        restored = SweepResult.from_dict(sweep.to_dict())
        for point in POINTS:
            expected = sweep.normalised_memory_energy(point)
            assert restored.normalised_memory_energy(point) == expected
