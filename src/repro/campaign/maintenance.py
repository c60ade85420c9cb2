"""Result-store maintenance: listing, garbage collection, verification, import.

A campaign result store accretes state over many runs: a crash can leave
a truncated record or an unindexed one, disk corruption or hand-editing can
damage records, and an entry's identity is a content hash that should always
match what is inside the record.  The operations here keep a segment store
healthy; each refuses a legacy per-file directory (import it first):

``ls``
    One line per entry (key prefix, application, policy label) without
    loading full results into memory.

``gc``
    Delete orphaned files (segments no index entry references, stray files
    in the root), rewrite the index without entries whose records are
    corrupt or mismatched, and repair crash damage (truncated tails,
    unindexed records) by re-running the store's recovery.

``verify``
    Re-derive each entry's content hash from the persisted canonical job
    payload and compare it to its key, and check the result payload
    round-trips bit-exactly through :class:`SimulationResult`.  Also
    detects index mismatches (an index entry whose record bytes hold a
    different key), index entries pointing at missing or shortened
    segments, unindexed records, truncated tails and per-segment
    provenance stamps that disagree with the store's.  A record superseded
    by a later put of the same key is neither checked nor reported.

``migrate``
    Import a legacy per-file store (one ``<key>.json`` per result) into a
    new segment store, copying the raw canonical payloads (so
    re-serialisation is byte-identical) and the trace-generator provenance
    stamp verbatim.  The source directory is only read.

All of these are exposed through ``python -m repro.cli store ...``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.campaign.jobs import hash_payload_digest
from repro.campaign.segments import (
    INDEX_FILE,
    SEGMENT_META_FILE,
    SEGMENTS_DIR,
    SegmentResultStore,
    parse_segment_number,
)
from repro.campaign.store import (
    PROVENANCE_FILE,
    BaseResultStore,
    ResultStore,
    atomic_write_text,
    open_store,
    refuse_legacy_store,
    stamped_provenance,
)
from repro.core.results import SimulationResult


@dataclass(frozen=True)
class EntryStatus:
    """Health report for one store entry (or stray file)."""

    path: Path
    key: Optional[str] = None
    application: Optional[str] = None
    label: Optional[str] = None
    problem: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no problem was found."""
        return self.problem is None


@dataclass
class StoreReport:
    """Outcome of a maintenance pass over one store."""

    entries: List[EntryStatus] = field(default_factory=list)
    orphans: List[Path] = field(default_factory=list)
    removed: List[Path] = field(default_factory=list)
    #: Keys whose index entries gc dropped (the record bytes stay in the
    #: append-only segment; a resume re-runs them).
    dropped_keys: List[str] = field(default_factory=list)

    @property
    def problems(self) -> List[EntryStatus]:
        """Entries with a detected problem."""
        return [entry for entry in self.entries if not entry.ok]

    @property
    def ok(self) -> bool:
        """True when every entry is healthy and no orphans remain."""
        return not self.problems and not self.orphans


def _store_root(store: Union[BaseResultStore, str, Path]) -> Path:
    if isinstance(store, BaseResultStore):
        return store.root
    return Path(store)


def _check_payload(
    path: Path, key: str, data: dict, check_hash: bool
) -> EntryStatus:
    """Structural checks for one entry record indexed under ``key``."""
    job = data["job"] if isinstance(data.get("job"), dict) else {}
    application = job.get("application")
    label = job.get("label")
    recorded = job.get("key")
    if recorded != key:
        return EntryStatus(
            path=path, key=key, application=application, label=label,
            problem=f"recorded key {str(recorded)[:16]}... does not match {key[:16]}...",
        )
    if "result" not in data:
        return EntryStatus(
            path=path, key=key, application=application, label=label,
            problem="missing job/result sections",
        )
    try:
        restored = SimulationResult.from_dict(data["result"])
        if restored.to_dict() != data["result"]:
            raise ValueError("result payload does not round-trip")
    except (KeyError, TypeError, ValueError) as error:
        return EntryStatus(
            path=path, key=key, application=application, label=label,
            problem=f"corrupt result payload ({error})",
        )
    if check_hash:
        payload = data.get("hash_payload")
        if payload is None:
            return EntryStatus(
                path=path, key=key, application=application, label=label,
                problem="no hash payload recorded (written by a pre-hash store)",
            )
        digest = hash_payload_digest(payload)
        if digest != key:
            return EntryStatus(
                path=path, key=key, application=application, label=label,
                problem=f"content hash mismatch (recomputed {digest[:16]}...)",
            )
    return EntryStatus(path=path, key=key, application=application, label=label)


def _scan_segment_store(root: Path, check_hashes: bool) -> StoreReport:
    """Inspect a segment store without mutating it.

    Replays the on-disk index directly (not through the store class, whose
    recovery would repair the very damage this scan must report) and walks
    every segment for unindexed records, truncated tails, orphaned files
    and provenance mismatches.
    """
    report = StoreReport()
    segments_dir = root / SEGMENTS_DIR
    index_path = root / INDEX_FILE

    store_provenance = stamped_provenance(root)

    # Replay the index file leniently: report damage instead of stopping.
    entries: dict = {}
    if index_path.exists():
        try:
            blob = index_path.read_bytes()
        except OSError as error:
            report.entries.append(
                EntryStatus(path=index_path, problem=f"unreadable index ({error})")
            )
            blob = b""
        position = 0
        total = len(blob)
        while position < total:
            newline = blob.find(b"\n", position)
            if newline == -1:
                report.entries.append(
                    EntryStatus(
                        path=index_path,
                        problem=f"truncated index tail at byte {position} "
                        f"(reopen the store to recover)",
                    )
                )
                break
            raw = blob[position:newline]
            if raw:
                try:
                    entry = json.loads(raw.decode("utf-8"))
                    entries[entry["key"]] = (
                        entry["segment"],
                        int(entry["offset"]),
                        int(entry["length"]),
                    )
                except (ValueError, KeyError, TypeError):
                    report.entries.append(
                        EntryStatus(
                            path=index_path,
                            problem=f"unparseable index line at byte {position}",
                        )
                    )
            position = newline + 1

    # Segment inventory: sizes, foreign files.
    sizes: dict = {}
    if segments_dir.is_dir():
        for path in sorted(segments_dir.iterdir()):
            if path.is_dir() or parse_segment_number(path.name) is None:
                report.orphans.append(path)
                continue
            sizes[path.name] = path.stat().st_size

    # Check every index entry against its record bytes.
    referenced: set = set()
    covered: dict = {}  # segment name -> set of byte ranges claimed
    for key, (name, offset, length) in sorted(entries.items()):
        seg_path = segments_dir / name
        referenced.add(name)
        if name not in sizes:
            report.entries.append(
                EntryStatus(
                    path=seg_path, key=key,
                    problem="index references a missing segment",
                )
            )
            continue
        if sizes[name] < offset + length + 1:
            report.entries.append(
                EntryStatus(
                    path=seg_path, key=key,
                    problem=f"index points past segment end "
                    f"(offset {offset}+{length} > {sizes[name]}; "
                    f"reopen the store to recover)",
                )
            )
            continue
        covered.setdefault(name, set()).add((offset, length))
        try:
            with seg_path.open("rb") as handle:
                handle.seek(offset)
                blob = handle.read(length)
            record = json.loads(blob.decode("utf-8"))
        except (OSError, ValueError) as error:
            report.entries.append(
                EntryStatus(
                    path=seg_path, key=key,
                    problem=f"unreadable record at offset {offset} ({error})",
                )
            )
            continue
        if not isinstance(record, dict):
            report.entries.append(
                EntryStatus(
                    path=seg_path, key=key,
                    problem=f"index mismatch: no record object at offset {offset}",
                )
            )
            continue
        recorded_key = record.get("key")
        if recorded_key != key:
            report.entries.append(
                EntryStatus(
                    path=seg_path, key=key,
                    application=(record.get("job") or {}).get("application"),
                    label=(record.get("job") or {}).get("label"),
                    problem=f"index mismatch: record holds key "
                    f"{str(recorded_key)[:16]}...",
                )
            )
            continue
        report.entries.append(_check_payload(seg_path, key, record, check_hashes))

    # Walk every segment for header sanity, unindexed records and tails.
    for name, size in sizes.items():
        seg_path = segments_dir / name
        claimed = covered.get(name, set())
        try:
            blob = seg_path.read_bytes()
        except OSError as error:
            report.entries.append(
                EntryStatus(path=seg_path, problem=f"unreadable segment ({error})")
            )
            continue
        position = 0
        saw_header = False
        has_records = bool(claimed)
        while position < len(blob):
            newline = blob.find(b"\n", position)
            if newline == -1:
                report.entries.append(
                    EntryStatus(
                        path=seg_path,
                        problem=f"truncated record tail at byte {position} "
                        f"(reopen the store to recover)",
                    )
                )
                break
            raw = blob[position:newline]
            if raw:
                try:
                    record = json.loads(raw.decode("utf-8"))
                except ValueError:
                    report.entries.append(
                        EntryStatus(
                            path=seg_path,
                            problem=f"unparseable record at byte {position}",
                        )
                    )
                    break
                if position == 0 and isinstance(record, dict) and (
                    "store_format" in record
                ):
                    saw_header = True
                    stamped = record.get("trace_generator")
                    if (
                        store_provenance is not None
                        and isinstance(stamped, str)
                        and stamped != store_provenance
                    ):
                        report.entries.append(
                            EntryStatus(
                                path=seg_path,
                                problem=f"segment provenance {stamped!r} "
                                f"disagrees with store marker "
                                f"{store_provenance!r}",
                            )
                        )
                elif isinstance(record, dict) and isinstance(
                    record.get("key"), str
                ):
                    has_records = True
                    # A record whose key is indexed elsewhere was superseded
                    # by a later put of the same key (a sweep re-run without
                    # resume): its bytes are dead, not damage.
                    if (position, len(raw)) not in claimed and (
                        record["key"] not in entries
                    ):
                        report.entries.append(
                            EntryStatus(
                                path=seg_path, key=record["key"],
                                problem=f"unindexed record at byte {position} "
                                f"(reopen the store to reindex)",
                            )
                        )
                else:
                    report.entries.append(
                        EntryStatus(
                            path=seg_path,
                            problem=f"foreign line at byte {position}",
                        )
                    )
            position = newline + 1
        if not saw_header:
            report.entries.append(
                EntryStatus(path=seg_path, problem="segment has no header line")
            )
        if not has_records and name not in referenced:
            # Header-only (or unreadable) segment nothing points at: an
            # orphan a gc may delete.
            report.orphans.append(seg_path)

    # Stray files in the store root (anything but metadata and the index).
    for path in sorted(root.iterdir()):
        if path.is_dir() or path.name.startswith("_"):
            continue
        if path.name == INDEX_FILE:
            continue
        report.orphans.append(path)
    # The meta file is metadata, never an orphan (covered by the "_" rule:
    # SEGMENT_META_FILE and PROVENANCE_FILE are underscore-prefixed).
    assert SEGMENT_META_FILE.startswith("_")
    return report


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def scan_store(
    store: Union[BaseResultStore, str, Path], check_hashes: bool = False
) -> StoreReport:
    """Inspect every entry and stray file in a store.

    Raises:
        ValueError: when the directory holds a legacy per-file store.
    """
    root = _store_root(store)
    if not root.is_dir():
        return StoreReport()
    refuse_legacy_store(root)
    return _scan_segment_store(root, check_hashes)


def store_ls(store: Union[BaseResultStore, str, Path]) -> StoreReport:
    """List the entries of a store (no hash re-check)."""
    return scan_store(store, check_hashes=False)


def store_verify(store: Union[BaseResultStore, str, Path]) -> StoreReport:
    """Fully verify a store: structure, round-trip, and content hashes."""
    return scan_store(store, check_hashes=True)


def store_gc(
    store: Union[BaseResultStore, str, Path], dry_run: bool = False
) -> StoreReport:
    """Repair a store: drop orphans and unrecoverable entries.

    Crash damage (truncated tails, unindexed records) is repaired by the
    store's own recovery, index entries whose records are corrupt or
    mismatched are dropped from the index (``dropped_keys``; the
    append-only segment bytes are left in place), and orphaned files are
    deleted.  Entries that merely predate hash-payload recording are kept,
    since their results are still loadable.

    Returns the report with ``removed``/``dropped_keys`` filled in.
    """
    root = _store_root(store)
    report = scan_store(root, check_hashes=False)
    if not root.is_dir():
        return report
    if dry_run:
        report.removed.extend(report.orphans)
        return report
    # 1. Let recovery repair crash damage (reindex unindexed records,
    #    truncate partial tails, rewrite a damaged index); loading the
    #    index is what triggers it.
    segment_store = SegmentResultStore(root)
    len(segment_store)
    # 2. Drop index entries whose indexed records are structurally bad
    #    (an unindexed record's key has no entry to drop).
    rescanned = scan_store(root, check_hashes=False)
    bad_keys = {
        entry.key for entry in rescanned.problems if entry.key in segment_store
    }
    if bad_keys:
        for key in sorted(bad_keys):
            report.dropped_keys.append(key)
        segment_store.drop_keys(bad_keys)
    segment_store.close()
    # 3. Delete orphaned files.
    for path in rescanned.orphans:
        path.unlink(missing_ok=True)
        report.removed.append(path)
    return report


def migrate_store(
    source: Union[str, Path], destination: Union[str, Path]
) -> Tuple[int, int]:
    """Import a legacy per-file store into a new segment store.

    The raw canonical payloads are copied (not re-derived), so the new
    records serialise byte-identically, and the source's provenance stamp
    is copied verbatim -- a store can be imported on any machine without
    reattributing its results.  Nothing is written to the source.

    Returns ``(entries_copied, entries_skipped)``: skipped entries are
    unreadable in the source, and a resumed campaign re-runs their jobs.
    """
    source = Path(source)
    destination = Path(destination)
    if not source.is_dir():
        raise ValueError(f"{source} is not a directory")
    if destination.resolve() == source.resolve():
        raise ValueError("cannot import a store onto itself")
    if (source / SEGMENT_META_FILE).exists():
        raise ValueError(f"{source} is already a segment store; nothing to import")
    if destination.exists() and any(destination.iterdir()):
        raise ValueError(
            f"destination {destination} is not empty; import into a fresh "
            f"directory"
        )
    legacy = ResultStore(source)
    total = len(legacy)
    copied = 0
    with open_store(destination) as imported:
        marker = source / PROVENANCE_FILE
        if marker.exists():
            atomic_write_text(
                destination / PROVENANCE_FILE,
                marker.read_text(encoding="utf-8"),
                prefix=".provenance-",
            )
        for key, payload in legacy.iter_records():
            imported.put_record(key, payload)
            copied += 1
        imported.flush()
    return copied, total - copied
