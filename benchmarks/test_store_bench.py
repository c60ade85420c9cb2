"""Store-throughput microbenchmark: puts/sec and resume-scan time at scale.

Measures the two operations that dominate a large campaign's non-simulation
cost -- committing a result (``put_record``) and reopening a populated
store for resume (the index replay) -- at 10k synthetic results on the
segment store, plus the import of a legacy one-file-per-result directory.

The emitted numbers (``BENCH_store.json``, one trajectory point appended
per emitting run) are wall-clock and therefore recorded but **not** gated; the assertions gate on exact counts only -- every put must be
resumable, recovery after a simulated crash must drop exactly one record,
and an import must carry every entry -- so shared-runner timing noise
cannot fail the build.

Scale knob: ``REFRINT_STORE_BENCH_N`` (default 10000 synthetic results).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.campaign.segments import SegmentResultStore
from repro.campaign.store import PROVENANCE_FILE, open_store

#: Synthetic results committed to the segment store.
N_RESULTS = int(os.environ.get("REFRINT_STORE_BENCH_N", "10000"))

#: Sized so the 10k-point run spans many segments (~55 records each at the
#: ~7 KiB synthetic payload), exercising rollover and multi-segment replay.
SEGMENT_MAX_BYTES = 512 * 1024

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def synthetic_key(index: int) -> str:
    return hashlib.sha256(f"store-bench-{index}".encode()).hexdigest()


def synthetic_payload(index: int) -> dict:
    """A payload shaped like a real campaign entry (~7 KiB serialised)."""
    return {
        "job": {
            "key": synthetic_key(index),
            "application": "synthetic",
            "label": f"point-{index}",
            "length_scale": 1.0,
            "seed": index,
        },
        "hash_payload": {"workload": {"seed": index}, "config": {"point": index}},
        "result": {
            "label": f"point-{index}",
            "counters": {f"counter_{c:02d}": index * c for c in range(64)},
            "energy": {f"component_{c:02d}": index * 0.5 + c for c in range(32)},
            "trace": [index + offset for offset in range(512)],
        },
    }


def timed_puts(store, count: int) -> float:
    start = time.perf_counter()
    for index in range(count):
        store.put_record(synthetic_key(index), synthetic_payload(index))
    store.flush()
    return time.perf_counter() - start


def _append_trajectory_point(point: dict) -> None:
    history = []
    if BENCH_FILE.exists():
        try:
            history = json.loads(BENCH_FILE.read_text())
            if not isinstance(history, list):
                history = [history]
        except ValueError:
            history = []
    history.append(point)
    BENCH_FILE.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def emitted_point():
    point = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n_results": N_RESULTS,
    }
    yield point
    if os.environ.get("REFRINT_STORE_BENCH_EMIT") == "1":
        _append_trajectory_point(point)


@pytest.fixture(scope="module")
def populated_segment_store(tmp_path_factory, emitted_point):
    """The 10k-put leg; shared so the scan legs reuse the same store."""
    root = tmp_path_factory.mktemp("bench") / "segment"
    store = SegmentResultStore(root, segment_max_bytes=SEGMENT_MAX_BYTES)
    elapsed = timed_puts(store, N_RESULTS)
    store.close()
    emitted_point["segment_put_seconds"] = round(elapsed, 3)
    emitted_point["segment_puts_per_second"] = round(N_RESULTS / elapsed)
    emitted_point["segment_files"] = len(
        list((root / "segments").glob("seg-*.jsonl"))
    )
    return root


def test_segment_puts_all_resumable(populated_segment_store):
    """Gate: every committed record is present (exact count, no timing)."""
    store = SegmentResultStore(
        populated_segment_store, segment_max_bytes=SEGMENT_MAX_BYTES
    )
    assert len(store) == N_RESULTS
    assert store._read_record(synthetic_key(0))["job"]["application"] == "synthetic"
    assert store._read_record(synthetic_key(N_RESULTS - 1)) is not None


def test_segment_resume_scan(populated_segment_store, emitted_point):
    """Reopen the populated store cold: one index replay, exact count."""
    start = time.perf_counter()
    store = SegmentResultStore(
        populated_segment_store, segment_max_bytes=SEGMENT_MAX_BYTES
    )
    count = len(store)  # forces the index replay
    elapsed = time.perf_counter() - start
    assert count == N_RESULTS
    emitted_point["segment_resume_scan_seconds"] = round(elapsed, 3)


def test_segment_crash_recovery_scan(populated_segment_store, emitted_point):
    """Truncate the tail record; recovery must drop exactly one result."""
    import shutil

    crashed = populated_segment_store.parent / "segment-crashed"
    if crashed.exists():
        shutil.rmtree(crashed)
    shutil.copytree(populated_segment_store, crashed)
    last = sorted((crashed / "segments").glob("seg-*.jsonl"))[-1]
    blob = last.read_bytes()
    last.write_bytes(blob[: len(blob) - 20])
    start = time.perf_counter()
    store = SegmentResultStore(crashed, segment_max_bytes=SEGMENT_MAX_BYTES)
    count = len(store)
    elapsed = time.perf_counter() - start
    assert count == N_RESULTS - 1  # exactly the truncated record is gone
    emitted_point["segment_recovery_scan_seconds"] = round(elapsed, 3)


def test_migration_carries_every_entry(tmp_path, emitted_point):
    """Gate: importing a legacy per-file store copies exact counts."""
    from repro.campaign.maintenance import migrate_store

    source_root = tmp_path / "mig-src"
    source_root.mkdir()
    (source_root / PROVENANCE_FILE).write_text(
        json.dumps({"trace_generator": "numpy"}, indent=2) + "\n"
    )
    count = min(500, N_RESULTS)
    for index in range(count):
        with (source_root / f"{synthetic_key(index)}.json").open("w") as handle:
            json.dump(synthetic_payload(index), handle, indent=2, sort_keys=True)
    start = time.perf_counter()
    copied, skipped = migrate_store(source_root, tmp_path / "mig-dst")
    emitted_point["migrate_500_seconds"] = round(time.perf_counter() - start, 3)
    assert (copied, skipped) == (count, 0)
    assert len(open_store(tmp_path / "mig-dst")) == count
