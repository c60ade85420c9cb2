"""Tests for the segment store: format, recovery, maintenance, legacy import.

These tests run a real miniature campaign once and exercise rollover, both
crash modes (record bytes lost versus index line lost), resume-after-crash
and maintenance on the artefacts it leaves behind.  The same results are
also written in the legacy one-file-per-result layout, to check that
``open_store`` refuses such a directory and that ``store migrate`` imports
it byte for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.engine import run_campaign, stream_campaign
from repro.campaign.jobs import enumerate_jobs
from repro.campaign.maintenance import (
    migrate_store,
    store_gc,
    store_verify,
)
from repro.campaign.segments import (
    SEGMENT_META_FILE,
    SegmentResultStore,
    parse_segment_number,
    segment_name,
)
from repro.campaign.store import (
    PROVENANCE_FILE,
    ResultStore,
    legacy_entry_keys,
    open_store,
)
from repro.config.parameters import DataPolicySpec, TimingPolicyKind
from repro.config.presets import scaled_architecture
from repro.core.sweep import PolicyPoint
from repro.workloads.suite import WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE
from tests.conftest import write_legacy_store

OTHER = "scalar" if TRACE_GENERATOR_PROVENANCE == "numpy" else "numpy"

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


def sweep_pairs(jobs, sweep):
    """``(job, result)`` for every job of a sweep."""
    return [
        (
            job,
            sweep.baseline(job.application)
            if job.is_baseline
            else sweep.results[job.application][job.point_label],
        )
        for job in jobs
    ]


@pytest.fixture(scope="module")
def campaign_stores(arch, requests, tmp_path_factory):
    """One miniature campaign in a segment store, and its results written
    in the legacy per-file layout."""
    root = tmp_path_factory.mktemp("stores")
    sweep, _ = run_campaign(
        requests, points=POINTS, architecture=arch, store=root / "segment",
    )
    jobs = enumerate_jobs(requests, POINTS, arch)
    legacy = write_legacy_store(root / "legacy", sweep_pairs(jobs, sweep))
    return legacy, root / "segment", sweep


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
        legacy_root, seg_root, _ = campaign_stores
        assert (seg_root / SEGMENT_META_FILE).exists()
        assert list((seg_root / "segments").glob("seg-*.jsonl"))
        meta = json.loads((seg_root / SEGMENT_META_FILE).read_text())
        assert meta["format"] == "refrint-segment-v1"
        assert legacy_entry_keys(seg_root) == []
        assert len(legacy_entry_keys(legacy_root)) == 3

    def test_segment_headers_stamp_provenance(self, campaign_stores):
        _, seg_root, _ = campaign_stores
        for path in (seg_root / "segments").glob("seg-*.jsonl"):
            header = json.loads(path.read_text().splitlines()[0])
            assert header["store_format"] == "refrint-segment-v1"
            assert header["segment"] == path.name
            assert isinstance(header["trace_generator"], str)

    def test_open_store_refuses_backend_mismatch(self, campaign_stores):
        # A legacy directory is refused, and the error alone says how to
        # import it; no other backend can be asked for.
        legacy_root, seg_root, _ = campaign_stores
        before = sorted(path.name for path in legacy_root.iterdir())
        with pytest.raises(ValueError) as excinfo:
            open_store(legacy_root)
        message = str(excinfo.value)
        assert "legacy" in message
        assert f"store migrate {legacy_root}" in message
        assert sorted(path.name for path in legacy_root.iterdir()) == before
        with pytest.raises(ValueError, match="only 'segment'"):
            open_store(seg_root, backend="json")

    def test_open_store_opens_a_killed_campaigns_directory(
        self, tmp_path, campaign_stores, arch, requests
    ):
        """A campaign killed before its first result leaves only the
        provenance stamp; that directory is a (new) segment store."""
        _, seg_root, _ = campaign_stores
        assert isinstance(open_store(seg_root), SegmentResultStore)
        killed = tmp_path / "killed"
        stream_campaign(requests, points=POINTS, architecture=arch, store=killed)
        assert [path.name for path in killed.iterdir()] == [PROVENANCE_FILE]
        store = open_store(killed, backend="segment")
        assert isinstance(store, SegmentResultStore)
        assert len(store) == 0


class TestRoundTripAndRollover:
    def test_mapping_interface(self, campaign_stores, arch, requests):
        _, seg_root, sweep = campaign_stores
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
        _, seg_root, _ = campaign_stores
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
        legacy_root, seg_root, _ = campaign_stores
        legacy_payloads = {
            key: json.dumps(payload, sort_keys=True)
            for key, payload in ResultStore(legacy_root).iter_records()
        }
        seg_payloads = {
            key: json.dumps(payload, sort_keys=True)
            for key, payload in open_store(seg_root).iter_records()
        }
        assert len(seg_payloads) == 3
        assert legacy_payloads == seg_payloads


class TestUncachedReads:
    """``get`` reads the segment on every call and shares no object."""

    def test_each_get_returns_a_fresh_result(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
        store = SegmentResultStore(clone_store(seg_root, tmp_path / "fresh"))
        key = sorted(store.keys())[0]
        first, second = store.get(key), store.get(key)
        assert first == second and first is not second
        pristine = first.to_dict()
        first.counters["l3_misses"] = -1
        first.energy.by_level["l3"] = -1.0
        first.per_core_finish_cycles.append(-1)
        assert store.get(key).to_dict() == pristine == second.to_dict()

    def test_writes_evict_their_keys(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
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


class TestCrashRecovery:
    def crash_truncate_tail(self, root, cut=25):
        """Chop the last ``cut`` bytes off the highest-numbered segment."""
        last = sorted((root / "segments").glob("seg-*.jsonl"))[-1]
        blob = last.read_bytes()
        last.write_bytes(blob[: len(blob) - cut])

    def test_truncated_record_is_cleanly_absent(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
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
        _, seg_root, sweep_before = campaign_stores
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
        _, seg_root, _ = campaign_stores
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
        _, seg_root, _ = campaign_stores
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
        """A campaign killed part-way resumes to the identical sweep.

        ``json`` is a legacy per-file store missing one entry, imported
        first; ``segment`` is a segment store with one entry retired.
        """
        legacy_root, seg_root, sweep_before = campaign_stores
        root = tmp_path / "partial"
        if backend == "json":
            partial = clone_store(legacy_root, tmp_path / "partial-legacy")
            victim = ResultStore(partial).keys()[0]
            (partial / f"{victim}.json").unlink()
            assert migrate_store(partial, root) == (2, 0)
        else:
            clone_store(seg_root, root)
            store = open_store(root)
            store.drop_keys([sorted(store.keys())[0]])
            store.close()
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=root, resume=True,
        )
        assert stats.executed == 1 and stats.reused == 2
        assert sweep.to_dict() == sweep_before.to_dict()


class TestMaintenanceOnSegments:
    def test_verify_clean_store(self, campaign_stores):
        _, seg_root, _ = campaign_stores
        report = store_verify(seg_root)
        assert report.ok
        assert len(report.entries) == 3
        assert all(entry.application == "blackscholes" for entry in report.entries)

    def test_verify_after_simulated_crash_then_gc(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "crash")
        TestCrashRecovery().crash_truncate_tail(root)
        report = store_verify(root)
        assert not report.ok
        problems = " ".join(entry.problem for entry in report.problems)
        assert "past segment end" in problems and "truncated" in problems
        store_gc(root)
        assert store_verify(root).ok

    def test_orphaned_segment_detection_and_gc(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
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
        _, seg_root, _ = campaign_stores
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
        _, seg_root, _ = campaign_stores
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


class TestMismatchedRecord:
    """An index entry pointing at another key's record reads as a miss."""

    def point_first_entry_at_second_record(self, root):
        index = root / "index.jsonl"
        lines = [json.loads(line) for line in index.read_text().splitlines()]
        lines[0]["offset"] = lines[1]["offset"]
        lines[0]["length"] = lines[1]["length"]
        index.write_text(
            "".join(
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
                for entry in lines
            )
        )
        return lines[0]["key"], lines[1]["key"]

    def test_get_misses_and_caches_nothing(self, tmp_path, campaign_stores):
        _, seg_root, _ = campaign_stores
        root = clone_store(seg_root, tmp_path / "mismatch")
        victim, other = self.point_first_entry_at_second_record(root)
        store = SegmentResultStore(root)
        assert victim in store
        assert store.get(victim) is None
        assert store.get(victim) is None
        assert store.get(other) is not None
        assert victim not in dict(store.iter_records())

    def test_resume_reruns_the_mismatched_job(
        self, tmp_path, campaign_stores, arch, requests
    ):
        _, seg_root, sweep_before = campaign_stores
        root = clone_store(seg_root, tmp_path / "mismatch")
        self.point_first_entry_at_second_record(root)
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch, store=root, resume=True,
        )
        assert stats.executed == 1 and stats.reused == 2
        assert sweep.to_dict() == sweep_before.to_dict()


class TestMigration:
    """``store migrate`` imports a legacy per-file store, one way only."""

    def test_legacy_import_is_byte_identical(self, tmp_path, campaign_stores):
        legacy_root, _, _ = campaign_stores
        before = {path.name: path.read_bytes() for path in legacy_root.iterdir()}
        destination = tmp_path / "imported"
        copied, skipped = migrate_store(legacy_root, destination)
        assert (copied, skipped) == (3, 0)
        assert store_verify(destination).ok
        imported = dict(open_store(destination).iter_records())
        assert sorted(imported) == legacy_entry_keys(legacy_root)
        for key, payload in imported.items():
            # Re-serialised with the legacy writer's settings, every record
            # reproduces its source file bit for bit.
            assert json.dumps(payload, indent=2, sort_keys=True) == (
                legacy_root / f"{key}.json"
            ).read_text()
        # The source is only read.
        after = {path.name: path.read_bytes() for path in legacy_root.iterdir()}
        assert after == before

    def test_migration_copies_provenance_verbatim(self, tmp_path, campaign_stores):
        legacy_root, _, _ = campaign_stores
        destination = tmp_path / "migrated"
        migrate_store(legacy_root, destination)
        assert (destination / PROVENANCE_FILE).read_bytes() == (
            legacy_root / PROVENANCE_FILE
        ).read_bytes()
        # A store from the other environment keeps its stamp, in the marker
        # and in every segment header: importing it here does not
        # reattribute its results, and the imported store verifies.
        foreign = clone_store(legacy_root, tmp_path / "foreign")
        (foreign / PROVENANCE_FILE).write_text(
            json.dumps({"trace_generator": OTHER}, indent=2) + "\n"
        )
        imported = tmp_path / "foreign-imported"
        assert migrate_store(foreign, imported) == (3, 0)
        assert (imported / PROVENANCE_FILE).read_bytes() == (
            foreign / PROVENANCE_FILE
        ).read_bytes()
        headers = [
            json.loads(path.read_text().splitlines()[0])["trace_generator"]
            for path in (imported / "segments").glob("seg-*.jsonl")
        ]
        assert headers == [OTHER]
        assert store_verify(imported).ok

    def test_migration_refuses_non_empty_destination(
        self, tmp_path, campaign_stores
    ):
        legacy_root, seg_root, _ = campaign_stores
        destination = tmp_path / "occupied"
        destination.mkdir()
        (destination / "something.txt").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            migrate_store(legacy_root, destination)
        with pytest.raises(ValueError, match="onto itself"):
            migrate_store(legacy_root, legacy_root)
        with pytest.raises(ValueError, match="already a segment store"):
            migrate_store(seg_root, tmp_path / "fresh")
        assert not (tmp_path / "fresh").exists()

    def test_migrated_store_resumes_without_rerunning(
        self, tmp_path, campaign_stores, arch, requests
    ):
        legacy_root, _, sweep_before = campaign_stores
        destination = tmp_path / "migrated"
        migrate_store(legacy_root, destination)
        sweep, stats = run_campaign(
            requests, points=POINTS, architecture=arch,
            store=destination, resume=True,
        )
        assert stats.executed == 0 and stats.reused == 3
        assert sweep.to_dict() == sweep_before.to_dict()
