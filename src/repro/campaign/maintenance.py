"""Result-store maintenance: listing, garbage collection, verification, import.

A campaign result store accretes state over many runs: a crash can leave
a truncated record or an unindexed one, disk corruption or hand-editing can
damage records, and an entry's identity is a content hash that should always
match what is inside the record.  The operations here keep a segment store
healthy; each refuses a legacy per-file directory (import it first).

This module holds policy only: what counts as damage, what ``gc`` removes,
and the legacy import.  It reads a store's files through the decoders of
:mod:`repro.campaign.segments` that crash recovery uses (``index_lines``,
``segment_lines``, ``read_record``), never through the store class, whose
recovery would repair the very damage a scan must report.

``ls``
    One line per entry (key prefix, application, policy label) without
    loading full results into memory.

``gc``
    Delete orphaned files (segments no index entry references, stray files
    in the root), rewrite the index without entries whose records are
    corrupt or mismatched, repair crash damage (truncated tails, unindexed
    tail records) by re-running the store's recovery, and index every other
    unindexed record whose payload passes ``verify``'s checks.

``verify``
    Re-derive each entry's content hash from the persisted canonical job
    payload and compare it to its key, and check the result payload
    round-trips bit-exactly through :class:`SimulationResult`.  Also
    detects every damaged index line, index mismatches (an index entry
    whose record bytes hold a different key), index entries pointing at
    missing or shortened segments, unindexed records, truncated tails and
    per-segment provenance stamps that disagree with the store's.  A record
    superseded by a later put of the same key is neither checked nor
    reported.

``migrate``
    Import a legacy per-file store (one ``<key>.json`` per result) into a
    new segment store, copying the raw canonical payloads (so
    re-serialisation is byte-identical) and the trace-generator provenance
    stamp verbatim.  The source directory is only read.

All of these are exposed through ``python -m repro.cli store ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.campaign.jobs import hash_payload_digest
from repro.campaign.segments import (
    ENTRY,
    HEADER,
    INDEX_FILE,
    PARTIAL,
    RECORD,
    SEGMENT_META_FILE,
    SEGMENTS_DIR,
    UNPARSEABLE,
    IndexEntry,
    SegmentResultStore,
    index_lines,
    read_record,
    segment_files,
    segment_lines,
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
    #: Where the unindexed records whose payloads pass ``verify``'s checks
    #: lie, by key (the last such record of a key wins); gc indexes them.
    unindexed: Dict[str, IndexEntry] = field(default_factory=dict)
    #: Keys gc indexed from ``unindexed``.
    reindexed_keys: List[str] = field(default_factory=list)

    @property
    def problems(self) -> List[EntryStatus]:
        """Entries with a detected problem."""
        return [entry for entry in self.entries if not entry.ok]

    @property
    def ok(self) -> bool:
        """True when every entry is healthy and no orphans remain."""
        return not self.problems and not self.orphans

    def flag(self, path: Path, problem: str, key: Optional[str] = None) -> None:
        """Record a problem with a file, or with the entry of ``key``."""
        self.entries.append(EntryStatus(path=path, key=key, problem=problem))


def _payload_problem(key: str, data: dict, check_hash: bool) -> Optional[str]:
    """What is wrong with the record indexed under ``key``, or None."""
    job = data["job"] if isinstance(data.get("job"), dict) else {}
    recorded = job.get("key")
    if recorded != key:
        return f"recorded key {str(recorded)[:16]}... does not match {key[:16]}..."
    if "result" not in data:
        return "missing job/result sections"
    try:
        restored = SimulationResult.from_dict(data["result"])
        if restored.to_dict() != data["result"]:
            raise ValueError("result payload does not round-trip")
    except (KeyError, TypeError, ValueError) as error:
        return f"corrupt result payload ({error})"
    if not check_hash:
        return None
    payload = data.get("hash_payload")
    if payload is None:
        return "no hash payload recorded (written by a pre-hash store)"
    digest = hash_payload_digest(payload)
    if digest != key:
        return f"content hash mismatch (recomputed {digest[:16]}...)"
    return None


#: How damaged lines are reported, by what :func:`index_lines` and
#: :func:`segment_lines` call the damage.
_INDEX_DAMAGE = {
    PARTIAL: "truncated index tail at byte {} (reopen the store to recover)",
    UNPARSEABLE: "unparseable index line at byte {}",
}
_SEGMENT_DAMAGE = {
    PARTIAL: "truncated record tail at byte {} (reopen the store to recover)",
    UNPARSEABLE: "unparseable record at byte {}",
}


def _scan_index(root: Path, report: StoreReport) -> Dict[str, IndexEntry]:
    """The index's entries.  Every damaged line is flagged and none ends
    the scan, where recovery stops at the first."""
    index_path = root / INDEX_FILE
    entries: Dict[str, IndexEntry] = {}
    if not index_path.exists():
        return entries
    try:
        blob = index_path.read_bytes()
    except OSError as error:
        report.flag(index_path, f"unreadable index ({error})")
        return entries
    for offset, kind, key, entry in index_lines(blob):
        if kind == ENTRY:
            entries[key] = entry
        else:
            report.flag(index_path, _INDEX_DAMAGE[kind].format(offset))
    return entries


def _scan_segment_store(root: Path, check_hashes: bool) -> StoreReport:
    """Inspect a segment store without mutating it."""
    report = StoreReport()
    segments_dir = root / SEGMENTS_DIR
    entries = _scan_index(root, report)
    sizes, foreign = segment_files(segments_dir)
    report.orphans.extend(foreign)

    # Check every index entry against its record bytes.
    claimed: Dict[str, Set[Tuple[int, int]]] = {}
    for key, (name, offset, length) in sorted(entries.items()):
        path = segments_dir / name
        if name not in sizes:
            report.flag(path, "index references a missing segment", key)
            continue
        if sizes[name] < offset + length + 1:
            report.flag(
                path,
                f"index points past segment end "
                f"(offset {offset}+{length} > {sizes[name]}; "
                f"reopen the store to recover)",
                key,
            )
            continue
        claimed.setdefault(name, set()).add((offset, length))
        try:
            record = read_record(path, offset, length)
        except (OSError, ValueError) as error:
            report.flag(path, f"unreadable record at offset {offset} ({error})", key)
            continue
        if not isinstance(record, dict):
            report.flag(
                path, f"index mismatch: no record object at offset {offset}", key
            )
            continue
        job = record["job"] if isinstance(record.get("job"), dict) else {}
        recorded = record.get("key")
        report.entries.append(
            EntryStatus(
                path=path,
                key=key,
                application=job.get("application"),
                label=job.get("label"),
                problem=f"index mismatch: record holds key {str(recorded)[:16]}..."
                if recorded != key
                else _payload_problem(key, record, check_hashes),
            )
        )

    # Walk every segment for header sanity, unindexed records and tails.
    store_provenance = stamped_provenance(root)
    referenced = {name for name, _, _ in entries.values()}
    for name in sizes:
        path = segments_dir / name
        try:
            blob = path.read_bytes()
        except OSError as error:
            report.flag(path, f"unreadable segment ({error})")
            continue
        saw_header = False
        has_records = name in claimed
        for offset, length, kind, value in segment_lines(blob):
            if kind in _SEGMENT_DAMAGE:
                report.flag(path, _SEGMENT_DAMAGE[kind].format(offset))
                break
            if kind == HEADER:
                saw_header = True
                stamped = value.get("trace_generator")
                if (
                    store_provenance is not None
                    and isinstance(stamped, str)
                    and stamped != store_provenance
                ):
                    report.flag(
                        path,
                        f"segment provenance {stamped!r} disagrees with "
                        f"store marker {store_provenance!r}",
                    )
            elif kind == RECORD:
                has_records = True
                # A record whose key is indexed elsewhere was superseded by
                # a later put of the same key (a sweep re-run without
                # resume): its bytes are dead, not damage.
                key = value["key"]
                if (offset, length) not in claimed.get(name, ()) and (
                    key not in entries
                ):
                    problem = _payload_problem(key, value, check_hash=True)
                    if problem is None:
                        report.unindexed[key] = (name, offset, length)
                        problem = "run store gc to reindex"
                    report.flag(
                        path, f"unindexed record at byte {offset} ({problem})", key
                    )
            else:
                report.flag(path, f"foreign line at byte {offset}")
        if not saw_header:
            report.flag(path, "segment has no header line")
        if not has_records and name not in referenced:
            # Header-only (or unreadable) segment nothing points at: an
            # orphan a gc may delete.
            report.orphans.append(path)

    # Stray files in the store root: anything but the index and the
    # underscore-prefixed metadata (the segment meta and provenance files).
    for path in sorted(root.iterdir()):
        if not (path.is_dir() or path.name.startswith("_") or path.name == INDEX_FILE):
            report.orphans.append(path)
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
    root = store.root if isinstance(store, BaseResultStore) else Path(store)
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

    Crash damage (truncated tails, unindexed tail records) is repaired by
    the store's own recovery, index entries whose records are corrupt or
    mismatched are dropped from the index (``dropped_keys``; the
    append-only segment bytes are left in place), every other unindexed
    record whose payload passes ``verify``'s checks is indexed
    (``reindexed_keys``), and orphaned files are deleted.  Entries that
    merely predate hash-payload recording are kept, since their results are
    still loadable.

    Returns the report with ``removed``/``dropped_keys``/``reindexed_keys``
    filled in.
    """
    root = store.root if isinstance(store, BaseResultStore) else Path(store)
    report = scan_store(root, check_hashes=False)
    if not root.is_dir():
        return report
    if dry_run:
        report.removed.extend(report.orphans)
        return report
    # 1. Let recovery repair crash damage (reindex unindexed tail records,
    #    truncate partial tails, delete segments left without a record,
    #    rewrite a damaged index); loading the index is what triggers it.
    segment_store = SegmentResultStore(root)
    len(segment_store)
    # 2. Drop index entries whose indexed records are structurally bad
    #    (an unindexed record's key has no entry to drop).
    rescanned = scan_store(root, check_hashes=False)
    bad_keys = {
        entry.key for entry in rescanned.problems if entry.key in segment_store
    }
    if bad_keys:
        report.dropped_keys.extend(sorted(bad_keys))
        segment_store.drop_keys(bad_keys)
        # A dropped entry can have hidden its key's own record.
        rescanned = scan_store(root, check_hashes=False)
    # 3. Index the unindexed records recovery's tail walk does not reach.
    report.reindexed_keys.extend(sorted(rescanned.unindexed))
    segment_store.index_records(rescanned.unindexed)
    segment_store.close()
    # 4. Delete orphaned files; recovery already deleted the segments that
    #    held no record, which the first scan counted as orphans.
    for path in rescanned.orphans:
        path.unlink(missing_ok=True)
    report.removed.extend(
        path
        for path in dict.fromkeys([*report.orphans, *rescanned.orphans])
        if not path.exists()
    )
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
