"""Tests for the result-store maintenance tooling (ls / gc / verify)."""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign.jobs import Job
from repro.campaign.maintenance import store_gc, store_ls, store_verify
from repro.campaign.store import entry_payload, open_store
from repro.cli import main as cli_main
from repro.config.parameters import SimulationConfig
from repro.core.results import SimulationResult
from repro.energy.accounting import EnergyBreakdown
from repro.workloads.suite import WorkloadRequest
from tests.conftest import make_tiny_architecture, write_legacy_store


def make_job(name: str = "fft") -> Job:
    architecture = make_tiny_architecture()
    return Job(
        workload=WorkloadRequest(name, length_scale=0.1),
        config=SimulationConfig.sram(architecture),
    )


def make_result(application: str = "fft") -> SimulationResult:
    return SimulationResult(
        config=None,
        application=application,
        execution_cycles=123,
        busy_core_cycles=45,
        counters={"l1d_hits": 7},
        energy=EnergyBreakdown(
            by_level={"l1": 1.0}, by_component={"dynamic": 1.0}, system={}
        ),
        per_core_finish_cycles=[123],
        restored_label="SRAM",
    )


def populate(root, mutate=None, first_key=None):
    """A store holding fft and barnes entries.

    ``mutate`` edits fft's payload before it is written, and ``first_key``
    files it under another key -- damage written as the record's only
    copy, the way a faulty writer or hand-editing leaves it.
    """
    store = open_store(root)
    jobs = [make_job("fft"), make_job("barnes")]
    for job in jobs:
        payload = entry_payload(job, make_result(job.application))
        key = job.key()
        if job is jobs[0]:
            if mutate is not None:
                mutate(payload)
            key = first_key or key
        store.put_record(key, payload)
    store.check_provenance()
    store.flush()
    return store, jobs


@pytest.fixture
def populated_store(tmp_path):
    return populate(tmp_path / "store")


def corrupt_record(store, key):
    """Overwrite one record's bytes in its segment with garbage."""
    name, offset, length = store._index[key]
    with store.segment_path(name).open("r+b") as handle:
        handle.seek(offset)
        handle.write(b"#" * length)


class TestScanAndLs:
    def test_ls_lists_every_entry(self, populated_store):
        store, jobs = populated_store
        report = store_ls(store)
        assert len(report.entries) == 2
        assert all(entry.ok for entry in report.entries)
        assert {entry.application for entry in report.entries} == {"fft", "barnes"}
        assert {entry.key for entry in report.entries} == {j.key() for j in jobs}

    def test_missing_directory_reports_empty(self, tmp_path):
        report = store_ls(tmp_path / "nope")
        assert report.entries == [] and report.orphans == []


class TestVerify:
    def test_intact_store_verifies(self, populated_store):
        store, _ = populated_store
        report = store_verify(store)
        assert report.ok
        assert not report.problems

    def test_tampered_payload_fails_hash_check(self, tmp_path):
        def tamper(data):
            data["hash_payload"]["workload"]["length_scale"] = 0.9

        store, _ = populate(tmp_path / "store", mutate=tamper)
        report = store_verify(store)
        assert len(report.problems) == 1
        assert "content hash mismatch" in report.problems[0].problem

    def test_renamed_entry_fails_key_check(self, tmp_path):
        store, _ = populate(tmp_path / "store", first_key="0" * 64)
        report = store_verify(store)
        assert len(report.problems) == 1
        assert "does not match" in report.problems[0].problem

    def test_corrupt_result_detected(self, tmp_path):
        def corrupt(data):
            del data["result"]["counters"]

        store, _ = populate(tmp_path / "store", mutate=corrupt)
        report = store_verify(store)
        assert len(report.problems) == 1
        assert "corrupt result" in report.problems[0].problem


class TestGc:
    def test_gc_removes_orphans_and_corrupt_entries(self, populated_store):
        store, jobs = populated_store
        orphan = store.root / ".deadbeef-1234.tmp"
        orphan.write_text("partial write")
        # barnes's record is the segment's last: cut it short, as a crash
        # mid-append does.
        segment = next((store.root / "segments").glob("seg-*.jsonl"))
        segment.write_bytes(segment.read_bytes()[:-40])
        assert not store_verify(store).ok
        report = store_gc(store)
        assert not orphan.exists()
        assert [p.name for p in report.removed] == [orphan.name]
        # The healthy entry survives and still verifies.
        assert store_verify(store).ok
        assert [entry.key for entry in store_ls(store).entries] == [jobs[0].key()]

    def test_gc_dry_run_removes_nothing(self, populated_store):
        store, _ = populated_store
        orphan = store.root / ".leftover.tmp"
        orphan.write_text("x")
        report = store_gc(store, dry_run=True)
        assert orphan.exists()
        assert [p.name for p in report.removed] == [orphan.name]

    def test_gc_keeps_legacy_entries_without_hash_payload(self, tmp_path):
        def strip(data):
            del data["hash_payload"]

        store, jobs = populate(tmp_path / "store", mutate=strip)
        store_gc(store)
        assert jobs[0].key() in open_store(store.root)
        # ...but verify flags them as unverifiable.
        report = store_verify(store)
        assert any("no hash payload" in e.problem for e in report.problems)


class TestReindex:
    """``store gc`` indexes what ``store verify`` calls unindexed."""

    def test_gc_reindexes_a_record_behind_a_dropped_entry(self, tmp_path):
        root = tmp_path / "store"
        store = open_store(root)
        jobs = [make_job(name) for name in ("fft", "barnes", "lu", "radix", "ocean")]
        for job in jobs:
            store.put(job, make_result(job.application))
        store.close()
        # The first index entry points at the second record: gc drops it,
        # which leaves the first record unindexed before indexed ones, out
        # of reach of recovery's tail walk.
        index = root / "index.jsonl"
        lines = [json.loads(line) for line in index.read_text().splitlines()]
        lines[0]["offset"], lines[0]["length"] = lines[1]["offset"], lines[1]["length"]
        index.write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        )
        victim = jobs[0].key()
        assert lines[0]["key"] == victim
        assert not store_verify(root).ok

        report = store_gc(root)
        assert report.dropped_keys == [victim] == report.reindexed_keys
        assert store_verify(root).ok
        reopened = open_store(root)
        assert reopened.get(victim).to_dict() == make_result("fft").to_dict()
        assert sorted(reopened.keys()) == sorted(job.key() for job in jobs)

    def test_verify_names_gc_for_what_reopening_cannot_reindex(self, tmp_path):
        store, jobs = populate(tmp_path / "store")
        offset = store._index[jobs[0].key()][1]
        store.drop_keys([jobs[0].key()])
        store.close()
        def problems():
            return [entry.problem for entry in store_verify(store.root).problems]

        expected = [f"unindexed record at byte {offset} (run store gc to reindex)"]
        assert problems() == expected
        assert jobs[0].key() not in open_store(store.root)
        assert problems() == expected
        out = io.StringIO()
        assert cli_main(["store", "gc", str(store.root)], out=out) == 0
        assert f"reindexed record {jobs[0].key()[:16]}..." in out.getvalue()
        assert "kept 2 entries" in out.getvalue()
        assert store_verify(store.root).ok
        assert jobs[0].key() in open_store(store.root)


class TestRewrittenKeys:
    """Putting a key again appends a new record and supersedes the old one."""

    def test_superseded_records_verify_and_survive_gc(self, populated_store):
        store, jobs = populated_store
        for job in jobs:
            store.put(job, make_result(job.application))
        store.flush()
        report = store_verify(store)
        assert report.ok and len(report.entries) == len(jobs)
        gc = store_gc(store)
        assert gc.dropped_keys == [] and gc.removed == []
        assert store_verify(store).ok
        assert sorted(open_store(store.root).keys()) == sorted(
            job.key() for job in jobs
        )

    def test_put_after_drop_keys(self, populated_store):
        store, jobs = populated_store
        assert store.drop_keys([jobs[1].key()]) == 1
        store.put(jobs[1], make_result("barnes"))
        store.flush()
        assert store.get(jobs[1].key()).to_dict() == make_result("barnes").to_dict()
        assert store_verify(store).ok
        assert jobs[1].key() in open_store(store.root)


class TestCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_store_ls(self, populated_store):
        store, _ = populated_store
        code, text = self.run_cli("store", "ls", str(store.root))
        assert code == 0
        assert "2 entries" in text
        assert "fft" in text and "barnes" in text

    def test_store_verify_ok_and_failing(self, populated_store):
        store, jobs = populated_store
        code, text = self.run_cli("store", "verify", str(store.root))
        assert code == 0 and "2 ok" in text
        corrupt_record(store, jobs[0].key())
        code, text = self.run_cli("store", "verify", str(store.root))
        assert code == 1
        assert "FAIL" in text

    def test_store_gc(self, populated_store):
        store, _ = populated_store
        (store.root / ".junk.tmp").write_text("x")
        code, text = self.run_cli("store", "gc", str(store.root))
        assert code == 0
        assert "removed 1 files" in text
        assert not (store.root / ".junk.tmp").exists()

    def test_store_missing_directory_errors(self, tmp_path):
        code, _ = self.run_cli("store", "ls", str(tmp_path / "absent"))
        assert code == 2

    @pytest.mark.parametrize("action", ["ls", "gc", "verify"])
    def test_store_refuses_legacy_directory(self, tmp_path, capsys, action):
        job = make_job()
        legacy = write_legacy_store(tmp_path / "legacy", [(job, make_result())])
        before = sorted(path.name for path in legacy.iterdir())
        code, _ = self.run_cli("store", action, str(legacy))
        assert code == 2
        assert f"store migrate {legacy}" in capsys.readouterr().err
        assert sorted(path.name for path in legacy.iterdir()) == before
