"""Trace-generator provenance: job hashes and the result-store stamp.

The numpy and scalar trace generators draw different (equally valid)
streams from the same workload recipe, so results from the two
environments must never alias.  Two independent guards enforce that:

* the provenance is part of every job's content hash, so a campaign in one
  environment can never *reuse* a result computed in the other;
* a result store stamps itself with the
  provenance of its first writer and refuses writes (and campaign resumes)
  from the other environment, so the mixing attempt fails loudly instead
  of silently recomputing every point into a mongrel store.
"""

from __future__ import annotations

import json

import pytest

import repro.campaign.jobs as jobs_module
from repro.campaign.engine import run_campaign
from repro.campaign.jobs import Job
from repro.campaign.maintenance import store_gc, store_verify
from repro.campaign.segments import SegmentResultStore
from repro.campaign.store import PROVENANCE_FILE, StoreProvenanceError
from repro.config.parameters import SimulationConfig
from repro.core.sweep import PolicyPoint
from repro.workloads.suite import WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

OTHER = "scalar" if TRACE_GENERATOR_PROVENANCE == "numpy" else "numpy"


def make_job(tiny_architecture) -> Job:
    return Job(
        workload=WorkloadRequest("fft", length_scale=0.01, seed=3),
        config=SimulationConfig.sram(tiny_architecture),
    )


class TestJobHash:
    def test_hash_payload_records_provenance(self, tiny_architecture):
        payload = make_job(tiny_architecture).hash_payload()
        assert payload["trace_generator"] == TRACE_GENERATOR_PROVENANCE

    def test_key_differs_across_environments(self, tiny_architecture, monkeypatch):
        here = make_job(tiny_architecture).key()
        monkeypatch.setattr(jobs_module, "TRACE_GENERATOR_PROVENANCE", OTHER)
        there = make_job(tiny_architecture).key()
        assert here != there


class TestStoreStamp:
    def test_first_put_stamps_the_store(self, tiny_architecture, tmp_path):
        store = SegmentResultStore(tmp_path / "store")
        store.check_provenance()
        marker = json.loads((store.root / PROVENANCE_FILE).read_text())
        assert marker == {"trace_generator": TRACE_GENERATOR_PROVENANCE}
        # Same environment: idempotent.
        SegmentResultStore(store.root).check_provenance()

    def test_other_environment_is_refused(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / PROVENANCE_FILE).write_text(
            json.dumps({"trace_generator": OTHER})
        )
        with pytest.raises(StoreProvenanceError, match="separate store"):
            SegmentResultStore(root).check_provenance()

    def test_corrupt_marker_is_refused_not_restamped(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / PROVENANCE_FILE).write_text('{"trace_generator": tru')
        with pytest.raises(StoreProvenanceError, match="unreadable"):
            SegmentResultStore(root).check_provenance()
        # The damaged marker must survive untouched for manual inspection.
        assert (root / PROVENANCE_FILE).read_text() == '{"trace_generator": tru'

    @pytest.mark.parametrize("body", ["{}", "null", '{"generator": "numpy"}'])
    def test_wrong_shape_marker_is_refused_not_restamped(self, tmp_path, body):
        root = tmp_path / "store"
        root.mkdir()
        (root / PROVENANCE_FILE).write_text(body)
        with pytest.raises(StoreProvenanceError, match="malformed"):
            SegmentResultStore(root).check_provenance()
        assert (root / PROVENANCE_FILE).read_text() == body

    def test_campaign_fails_fast_on_mixed_store(self, tiny_architecture, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / PROVENANCE_FILE).write_text(
            json.dumps({"trace_generator": OTHER})
        )
        with pytest.raises(StoreProvenanceError):
            run_campaign(
                requests=[WorkloadRequest("fft", length_scale=0.01, seed=3)],
                points=[],
                architecture=tiny_architecture,
                store=root,
            )

    def test_marker_is_invisible_to_entry_iteration(self, tmp_path):
        store = SegmentResultStore(tmp_path / "store")
        store.check_provenance()
        assert list(store.keys()) == []
        assert len(store) == 0

    def test_marker_survives_maintenance(self, tmp_path):
        store = SegmentResultStore(tmp_path / "store")
        store.check_provenance()
        report = store_verify(store)
        assert report.ok
        assert report.entries == []
        store_gc(store)
        assert (store.root / PROVENANCE_FILE).exists()


class TestEndToEnd:
    def test_campaign_store_roundtrip_with_provenance(
        self, tiny_architecture, tmp_path
    ):
        """run -> resume -> verify against a stamped store."""
        requests = [WorkloadRequest("fft", length_scale=0.01, seed=3)]
        points: list[PolicyPoint] = []
        store = SegmentResultStore(tmp_path / "store")
        _, first = run_campaign(
            requests=requests, points=points,
            architecture=tiny_architecture, store=store,
        )
        assert first.executed == 1
        _, resumed = run_campaign(
            requests=requests, points=points,
            architecture=tiny_architecture, store=store, resume=True,
        )
        assert resumed.reused == 1
        assert store_verify(store).ok
