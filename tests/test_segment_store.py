"""Tests for the segment store backend: format, recovery, equivalence.

The segment store must be drop-in equivalent to the per-file JSON backend
(byte-identical canonical payloads, same resume semantics) while adding
crash-safe append-only persistence.  These tests run a real miniature
campaign once and exercise rollover, both crash modes (record bytes lost
versus index line lost), resume-after-crash, maintenance and migration on
the artefacts it leaves behind.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.jobs import enumerate_jobs
from repro.campaign.maintenance import (
    migrate_store,
    store_gc,
    store_verify,
)
from repro.campaign.segments import (
    DECODED_CACHE_ENTRIES,
    SEGMENT_META_FILE,
    SegmentResultStore,
    parse_segment_number,
    segment_name,
)
from repro.campaign.store import (
    ResultStore,
    detect_backend,
    open_store,
)
from repro.config.parameters import DataPolicySpec, TimingPolicyKind
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
def campaign_stores(arch, requests, tmp_path_factory):
    """One miniature campaign persisted to both backends."""
    root = tmp_path_factory.mktemp("stores")
    sweep_json, _ = run_campaign(
        requests, points=POINTS, architecture=arch,
        store=root / "json", store_backend="json",
    )
    sweep_seg, _ = run_campaign(
        requests, points=POINTS, architecture=arch,
        store=root / "segment", store_backend="segment",
    )
    return root / "json", root / "segment", sweep_json, sweep_seg


def clone_store(source, destination):
    import shutil

    shutil.copytree(source, destination)
    return destination


class TestSegmentFormat:
    def test_naming_round_trip(self):
        assert segment_name(7) == "seg-00000007.jsonl"
        assert parse_segment_number("seg-00000007.jsonl") == 7
        assert parse_segment_number("seg-7.jsonl") is None
        assert parse_segment_number("other.jsonl") is None

    def test_layout_and_detection(self, campaign_stores):
        json_root, seg_root, _, _ = campaign_stores
        assert detect_backend(seg_root) == "segment"
        assert detect_backend(json_root) == "json"
        assert (seg_root / SEGMENT_META_FILE).exists()
        assert list((seg_root / "segments").glob("seg-*.jsonl"))
        meta = json.loads((seg_root / SEGMENT_META_FILE).read_text())
        assert meta["format"] == "refrint-segment-v1"

    def test_segment_headers_stamp_provenance(self, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        for path in (seg_root / "segments").glob("seg-*.jsonl"):
            header = json.loads(path.read_text().splitlines()[0])
            assert header["store_format"] == "refrint-segment-v1"
            assert header["segment"] == path.name
            assert isinstance(header["trace_generator"], str)

    def test_open_store_refuses_backend_mismatch(self, campaign_stores):
        # The refusal must name BOTH the detected and the requested backend
        # and spell out the store-migrate escape hatch, so the error alone
        # is enough to fix the invocation.
        json_root, seg_root, _, _ = campaign_stores
        with pytest.raises(ValueError) as excinfo:
            open_store(seg_root, backend="json")
        message = str(excinfo.value)
        assert "'segment'-layout" in message
        assert "backend='json'" in message
        assert f"store migrate {seg_root}" in message
        assert "--to json" in message
        with pytest.raises(ValueError) as excinfo:
            open_store(json_root, backend="segment")
        message = str(excinfo.value)
        assert "'json'-layout" in message
        assert "backend='segment'" in message
        assert f"store migrate {json_root}" in message
        assert "--to segment" in message

    def test_open_store_auto_detects(self, campaign_stores):
        json_root, seg_root, _, _ = campaign_stores
        assert isinstance(open_store(seg_root), SegmentResultStore)
        assert isinstance(open_store(json_root), ResultStore)


class TestRoundTripAndRollover:
    def test_mapping_interface(self, campaign_stores, arch, requests):
        _, seg_root, sweep, _ = campaign_stores
        store = SegmentResultStore(seg_root)
        jobs = enumerate_jobs(requests, POINTS, arch)
        assert len(store) == len(jobs)
        assert sorted(store.keys()) == sorted(job.key() for job in jobs)
        for job in jobs:
            assert job.key() in store
        assert "0" * 64 not in store
        baseline = store.get(jobs[0].key())
        assert baseline is not None
        assert baseline.to_dict() == sweep.baseline("blackscholes").to_dict()
        assert store.get("0" * 64) is None

    def test_rollover_splits_records_across_segments(
        self, tmp_path, campaign_stores
    ):
        _, seg_root, _, _ = campaign_stores
        source = SegmentResultStore(seg_root)
        small = SegmentResultStore(tmp_path / "small", segment_max_bytes=4096)
        for key, payload in source.iter_records():
            small.put_record(key, payload)
        small.close()
        segments = sorted((tmp_path / "small" / "segments").glob("seg-*.jsonl"))
        assert len(segments) > 1  # records are ~3 KiB each; the cap forces rolls
        # Every record is still reachable through the rebuilt index.
        reopened = SegmentResultStore(tmp_path / "small", segment_max_bytes=4096)
        assert len(reopened) == len(source)
        for key, payload in source.iter_records():
            assert reopened.get(key) is not None

    def test_payloads_byte_identical_across_backends(self, campaign_stores):
        json_root, seg_root, _, _ = campaign_stores
        json_store = open_store(json_root)
        seg_store = open_store(seg_root)
        json_payloads = {
            key: json.dumps(payload, sort_keys=True)
            for key, payload in json_store.iter_records()
        }
        seg_payloads = {
            key: json.dumps(payload, sort_keys=True)
            for key, payload in seg_store.iter_records()
        }
        assert json_payloads == seg_payloads

    def test_sweeps_identical_across_backends(self, campaign_stores):
        _, _, sweep_json, sweep_seg = campaign_stores
        assert sweep_json.to_dict() == sweep_seg.to_dict()


class TestDecodedResultCache:
    """``get`` serves repeat reads from decoded dicts, never shared objects."""

    def test_each_get_returns_a_fresh_result(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        store = SegmentResultStore(clone_store(seg_root, tmp_path / "fresh"))
        key = sorted(store.keys())[0]
        first, second = store.get(key), store.get(key)
        assert first == second and first is not second
        pristine = first.to_dict()
        first.counters["l3_misses"] = -1
        first.energy.by_level["l3"] = -1.0
        first.per_core_finish_cycles.append(-1)
        assert store.get(key).to_dict() == pristine == second.to_dict()

    def test_repeat_get_skips_the_segment(
        self, tmp_path, campaign_stores, monkeypatch
    ):
        _, seg_root, _, _ = campaign_stores
        store = SegmentResultStore(clone_store(seg_root, tmp_path / "warm"))
        key = sorted(store.keys())[0]
        expected = store.get(key).to_dict()

        def no_disk(entry):
            raise AssertionError("a cached key was read from its segment")

        monkeypatch.setattr(store, "_read_entry", no_disk)
        assert store.get(key).to_dict() == expected

    def test_writes_evict_their_keys(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        store = SegmentResultStore(clone_store(seg_root, tmp_path / "evict"))
        rewritten, dropped = sorted(store.keys())[:2]
        payload = dict(store.iter_records())[rewritten]
        cycles = store.get(rewritten).execution_cycles
        payload["result"] = dict(payload["result"], execution_cycles=cycles + 1)
        store.put_record(rewritten, payload)
        assert store.get(rewritten).execution_cycles == cycles + 1
        assert store.get(dropped) is not None
        store.drop_keys([dropped])
        assert store.get(dropped) is None
        store.close()

    def test_cache_stays_within_its_bound(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        store = SegmentResultStore(clone_store(seg_root, tmp_path / "bound"))
        _, payload = next(iter(store.iter_records()))
        keys = [f"{number:064x}" for number in range(DECODED_CACHE_ENTRIES + 8)]
        for key in keys:
            store.put_record(key, payload)
        for key in keys + keys[:4]:
            assert store.get(key) is not None
            assert len(store._decoded) <= DECODED_CACHE_ENTRIES
        assert len(store._decoded) == DECODED_CACHE_ENTRIES
        store.close()


class TestCrashRecovery:
    def crash_truncate_tail(self, root, cut=25):
        """Chop the last ``cut`` bytes off the highest-numbered segment."""
        last = sorted((root / "segments").glob("seg-*.jsonl"))[-1]
        blob = last.read_bytes()
        last.write_bytes(blob[: len(blob) - cut])

    def test_truncated_record_is_cleanly_absent(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        before = set(SegmentResultStore(seg_root).keys())
        self.crash_truncate_tail(root)
        store = SegmentResultStore(root)
        survived = set(store.keys())
        assert len(survived) == len(before) - 1
        lost = (before - survived).pop()
        assert store.get(lost) is None
        # Recovery is stable: a second open sees the same state, and the
        # store accepts new appends at the repaired boundary.
        source = SegmentResultStore(seg_root)
        payload = dict(source.iter_records())[lost]
        store.put_record(lost, payload)
        store.close()
        reopened = SegmentResultStore(root)
        assert set(reopened.keys()) == before
        assert reopened.get(lost).to_dict() == payload["result"]

    def test_resume_reruns_only_the_lost_jobs(
        self, tmp_path, campaign_stores, arch, requests
    ):
        """After a crash, a resumed campaign re-runs exactly the lost jobs."""
        _, seg_root, sweep_before, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        self.crash_truncate_tail(root)
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch,
            store=root, resume=True,
        )
        assert stats.executed == 1  # exactly the lost job, nothing else
        assert stats.reused == 2
        assert sweep.to_dict() == sweep_before.to_dict()
        assert store_verify(root).ok

    def test_lost_index_line_is_reindexed(self, tmp_path, campaign_stores):
        """Crash between segment append and index append loses nothing."""
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        index = root / "index.jsonl"
        lines = index.read_text().splitlines()
        dropped = json.loads(lines[-1])["key"]
        index.write_text("".join(line + "\n" for line in lines[:-1]))
        store = SegmentResultStore(root)
        assert dropped in store  # recovered from the segment bytes
        assert store.get(dropped) is not None
        # ... and the recovered entry was appended back to the index file.
        on_disk = [json.loads(line)["key"] for line in index.read_text().splitlines()]
        assert dropped in on_disk

    def test_resume_after_lost_index_line_reruns_nothing(
        self, tmp_path, campaign_stores, arch, requests
    ):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        index = root / "index.jsonl"
        lines = index.read_text().splitlines()
        index.write_text("".join(line + "\n" for line in lines[:-1]))
        _, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=root, resume=True,
        )
        assert stats.executed == 0
        assert stats.reused == len(lines)

    @pytest.mark.parametrize("backend", ["json", "segment"])
    def test_resume_mid_campaign_round_trip(
        self, tmp_path, campaign_stores, arch, requests, backend
    ):
        """A campaign killed part-way resumes to the identical sweep."""
        json_root, seg_root, sweep_before, _ = campaign_stores
        source = json_root if backend == "json" else seg_root
        root = clone_store(source, tmp_path / "partial")
        # Simulate the kill: retire one completed job from the store.
        store = open_store(root)
        victim = sorted(store.keys())[0]
        if backend == "json":
            store.path_for(victim).unlink()
            store.refresh_index()
        else:
            store.drop_keys([victim])
        store.close()
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=root, resume=True,
        )
        assert stats.executed == 1 and stats.reused == 2
        assert sweep.to_dict() == sweep_before.to_dict()


class TestMaintenanceOnSegments:
    def test_verify_clean_store(self, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        report = store_verify(seg_root)
        assert report.ok
        assert len(report.entries) == 3
        assert all(entry.application == "blackscholes" for entry in report.entries)

    def test_verify_after_simulated_crash_then_gc(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        TestCrashRecovery().crash_truncate_tail(root)
        report = store_verify(root)
        assert not report.ok
        problems = " ".join(entry.problem for entry in report.problems)
        assert "past segment end" in problems and "truncated" in problems
        store_gc(root)
        assert store_verify(root).ok

    def test_orphaned_segment_detection_and_gc(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "orphan")
        stray = root / "segments" / segment_name(999)
        header = {"segment": stray.name, "store_format": "refrint-segment-v1"}
        stray.write_text(json.dumps(header) + "\n")
        (root / "leftover.tmp").write_text("x")
        (root / "segments" / "notes.txt").write_text("x")
        report = store_verify(root)
        names = {path.name for path in report.orphans}
        assert {stray.name, "leftover.tmp", "notes.txt"} <= names
        report = store_gc(root)
        assert not stray.exists()
        assert not (root / "leftover.tmp").exists()
        assert store_verify(root).ok

    def test_index_mismatch_detection(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "mismatch")
        index = root / "index.jsonl"
        lines = [json.loads(line) for line in index.read_text().splitlines()]
        # Point the first entry at the second entry's record bytes.
        lines[0]["offset"] = lines[1]["offset"]
        lines[0]["length"] = lines[1]["length"]
        index.write_text(
            "".join(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
                for entry in lines
            )
        )
        report = store_verify(root)
        problems = " ".join(entry.problem for entry in report.problems)
        assert "index mismatch" in problems

    def test_hash_verification_catches_tampering(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "tampered")
        store = SegmentResultStore(root)
        key, payload = next(iter(store.iter_records()))
        tampered = json.loads(json.dumps(payload))
        tampered["hash_payload"]["workload"]["seed"] = 12345
        store.drop_keys([key])
        store.put_record(key, tampered)
        store.close()
        report = store_verify(root)
        problems = " ".join(entry.problem for entry in report.problems)
        assert "content hash mismatch" in problems


class TestMigration:
    def test_json_to_segment_to_json_is_byte_identical(
        self, tmp_path, campaign_stores
    ):
        json_root, _, _, _ = campaign_stores
        seg_copy = tmp_path / "as-segment"
        json_again = tmp_path / "as-json"
        copied, skipped = migrate_store(json_root, seg_copy, backend="segment")
        assert (copied, skipped) == (3, 0)
        assert detect_backend(seg_copy) == "segment"
        assert store_verify(seg_copy).ok
        migrate_store(seg_copy, json_again, backend="json")
        original = {
            path.name: path.read_bytes() for path in json_root.glob("*.json")
        }
        restored = {
            path.name: path.read_bytes() for path in json_again.glob("*.json")
        }
        assert original == restored

    def test_migration_copies_provenance_verbatim(self, tmp_path, campaign_stores):
        _, seg_root, _, _ = campaign_stores
        destination = tmp_path / "migrated"
        migrate_store(seg_root, destination, backend="json")
        assert (
            open_store(destination).recorded_provenance()
            == open_store(seg_root).recorded_provenance()
        )

    def test_migration_refuses_non_empty_destination(
        self, tmp_path, campaign_stores
    ):
        json_root, _, _, _ = campaign_stores
        destination = tmp_path / "occupied"
        destination.mkdir()
        (destination / "something.txt").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            migrate_store(json_root, destination, backend="segment")

    def test_migrated_store_resumes_without_rerunning(
        self, tmp_path, campaign_stores, arch, requests
    ):
        json_root, _, sweep_before, _ = campaign_stores
        destination = tmp_path / "migrated"
        migrate_store(json_root, destination, backend="segment")
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch,
            store=destination, resume=True,
        )
        assert stats.executed == 0 and stats.reused == 3
        assert sweep.to_dict() == sweep_before.to_dict()
