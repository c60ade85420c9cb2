"""Property: crash recovery and ``store verify`` agree on random damage.

Recovery (opening a :class:`SegmentResultStore`) and ``store verify`` read
the store's files through the one reader in :mod:`repro.campaign.segments`.
Each example damages a copy of a small populated store in one way -- a
segment or ``index.jsonl`` cut at a random byte, the last index line
dropped, or a partial record appended -- and checks both sides of that
reader: ``store verify`` flags the damage, reopening the store repairs it
to a state ``store verify`` passes, and ``get`` still serves every record
whose line survived whole (and no other).

A cut can fall anywhere in a segment, its header included: recovery
truncates a cut record off and deletes a segment left without a record.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.jobs import Job
from repro.campaign.maintenance import store_verify
from repro.campaign.segments import SegmentResultStore
from repro.config.parameters import SimulationConfig
from repro.core.results import SimulationResult
from repro.energy.accounting import EnergyBreakdown
from repro.workloads.suite import WorkloadRequest
from tests.conftest import make_tiny_architecture

#: Records are ~1.5 KiB, so the store spans four segments of three
#: records each and cuts reach segments other than the last.
SEGMENT_BYTES = 4000

RECORDS = 12

DAMAGE = ("cut-segment", "cut-index", "drop-last-index-line", "partial-record")


def make_pair(seed: int):
    job = Job(
        workload=WorkloadRequest("fft", length_scale=0.1, seed=seed),
        config=SimulationConfig.sram(make_tiny_architecture()),
    )
    result = SimulationResult(
        config=None,
        application="fft",
        execution_cycles=1000 + seed,
        busy_core_cycles=500 + seed,
        counters={"l1d_hits": seed, "l1d_misses": 2 * seed},
        energy=EnergyBreakdown(
            by_level={"l1": 1.0 + seed}, by_component={"dynamic": 1.0 + seed}
        ),
        per_core_finish_cycles=[1000 + seed],
        restored_label="SRAM",
    )
    return job, result


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A populated store, its index entries and each key's result."""
    root = tmp_path_factory.mktemp("pristine") / "store"
    store = SegmentResultStore(root, segment_max_bytes=SEGMENT_BYTES)
    expected = {}
    for seed in range(RECORDS):
        job, result = make_pair(seed)
        store.put(job, result)
        expected[job.key()] = result.to_dict()
    store.close()
    entries = dict(store._index)
    segments = sorted((root / "segments").glob("seg-*.jsonl"))
    assert [path.read_bytes().count(b"\n") - 1 for path in segments] == [3] * 4
    assert store_verify(root).ok
    return root, entries, expected


def damage(root, entries, data):
    """Apply one drawn damage; returns the keys whose record lines survive."""
    kind = data.draw(st.sampled_from(DAMAGE), label="damage")
    segments = sorted((root / "segments").glob("seg-*.jsonl"))
    index = root / "index.jsonl"
    if kind == "cut-segment":
        path = data.draw(st.sampled_from(segments), label="segment")
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        return {
            key
            for key, (name, offset, length) in entries.items()
            if name != path.name or offset + length + 1 <= cut
        }
    if kind == "cut-index":
        blob = index.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        index.write_bytes(blob[:cut])
    elif kind == "drop-last-index-line":
        lines = index.read_bytes().splitlines(keepends=True)
        index.write_bytes(b"".join(lines[:-1]))
    else:
        line = segments[-1].read_bytes().splitlines()[-1]
        size = data.draw(st.integers(1, len(line) - 1), label="partial bytes")
        with segments[-1].open("ab") as handle:
            handle.write(line[:size])
    return set(entries)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_recovery_repairs_what_verify_flags(pristine, tmp_path_factory, data):
    source, entries, expected = pristine
    root = tmp_path_factory.mktemp("damaged") / "store"
    shutil.copytree(source, root)
    survivors = damage(root, entries, data)

    assert not store_verify(root).ok

    store = SegmentResultStore(root, segment_max_bytes=SEGMENT_BYTES)
    assert set(store.keys()) == survivors
    report = store_verify(root)
    assert report.ok, [entry.problem for entry in report.problems] + [
        path.name for path in report.orphans
    ]
    for key in survivors:
        assert store.get(key).to_dict() == expected[key]
