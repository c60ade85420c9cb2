"""Indexed, append-only segment store for campaign results.

The one on-disk layout of a campaign result store, and the only code that
encodes or decodes its files.  A per-file layout pays one
``open``/``write``/``rename`` per result and a directory scan per resume --
fine at hundreds of points, a syscall storm at 100k.  This module uses the
classic log-structured layout instead:

``<root>/segments/seg-00000001.jsonl``
    Append-only JSONL segments, size-capped (:data:`DEFAULT_SEGMENT_BYTES`).
    The first line of every segment is a header stamping the segment with
    the store format and the store's trace-generator provenance;
    every following line is one complete entry record (the canonical
    payload of :func:`~repro.campaign.store.entry_payload` plus its key,
    compactly serialised).

``<root>/index.jsonl``
    The compact on-disk index: one line per committed record, mapping the
    job-hash key to ``(segment, offset, length)``.  Appended *after* the
    segment append is flushed, so the index never references bytes that are
    not on disk.

``<root>/_segment_store.json``
    Store meta (format version, configured segment cap).

Every line of both files is written by :func:`encode_line` (an index line
by :func:`index_line`) and read back through one walk over the bytes,
decoded by :func:`index_lines` or :func:`segment_lines`;
:func:`read_record` reads one record at its indexed offset.  Crash recovery
here and ``store verify``/``gc`` in :mod:`repro.campaign.maintenance` read
the files through these same functions, so they cannot disagree about
what a line holds -- only about what to do with damage.

Crash safety is recovery-based rather than rename-based: on open the store
replays the index up to its first damaged line, drops entries pointing past
a segment's end (the record bytes were lost), re-indexes complete records
that never got their index line (crash between the two appends) by walking
only each segment's unindexed tail, and truncates a partial record off the
tail.  A result is therefore either fully durable or cleanly absent -- a
resumed campaign re-runs exactly the lost jobs.

Writes go through a single in-process writer (a lock around two buffered
appends); a persistent worker pool streams results back to the campaign
parent, which is that single writer.  One process writes a store at a
time: two processes appending to one store concurrently would interleave
their segment and index appends.

Every :meth:`SegmentResultStore.get` reads its record from the segment and
builds a new :class:`~repro.core.results.SimulationResult`; the store keeps
no decoded results.  A caller that reads one key many times keeps what it
derives from the read itself, as the query service keeps each stored
result's encoded answer (:mod:`repro.service.core`).  A record that holds
another key than the index entry pointing at it reads as a miss
everywhere (``store verify`` reports it as an index mismatch).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.campaign.store import (
    BaseResultStore,
    atomic_write_text,
    stamped_provenance,
)
from repro.core.results import SimulationResult

#: Subdirectory holding the append-only segment files.
SEGMENTS_DIR = "segments"

#: The on-disk index file (one compact JSON line per committed record).
INDEX_FILE = "index.jsonl"

#: Store meta file; its presence identifies the segment layout.
SEGMENT_META_FILE = "_segment_store.json"

#: Format tag written into the meta file and every segment header.
SEGMENT_FORMAT = "refrint-segment-v1"

#: Default size cap per segment file (new records roll to a fresh segment
#: once the active one exceeds this).  4 MiB keeps any single recovery scan
#: and any ``gc`` rewrite small while a 100k-point campaign still fits in a
#: few hundred segments.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Where one record lives: segment name, byte offset, length without the
#: newline.
IndexEntry = Tuple[str, int, int]

#: What a line of a store file holds.  A segment's first line may be its
#: HEADER; a RECORD is a dict with a string ``key``; an index line that
#: decodes is an ENTRY; any other JSON is FOREIGN.  UNPARSEABLE and PARTIAL
#: (a final line without its newline) are damage.
HEADER, RECORD, ENTRY, FOREIGN = "header", "record", "entry", "foreign"
UNPARSEABLE, PARTIAL = "unparseable", "partial"


def segment_name(number: int) -> str:
    """Canonical file name of segment ``number`` (1-based)."""
    return f"seg-{number:08d}.jsonl"


def parse_segment_number(name: str) -> Optional[int]:
    """Inverse of :func:`segment_name`; None for foreign file names."""
    if not (name.startswith("seg-") and name.endswith(".jsonl")):
        return None
    digits = name[len("seg-"):-len(".jsonl")]
    return int(digits) if digits.isdigit() and len(digits) == 8 else None


def encode_line(value: dict) -> bytes:
    """One line of a segment or of the index: compact key-sorted JSON."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


def index_line(key: str, entry: IndexEntry) -> bytes:
    """The index line filing ``key`` at ``entry``."""
    name, offset, length = entry
    return encode_line(
        {"key": key, "segment": name, "offset": offset, "length": length}
    )


def _lines(
    blob: bytes, start: int
) -> Iterator[Tuple[int, int, Optional[str], object]]:
    """The one walk over newline-delimited JSON, read from byte ``start``.

    Yields ``(offset, length, damage, value)`` per non-empty line, with
    ``offset`` counted from the start of the file and ``value`` the decoded
    JSON; ``damage`` is UNPARSEABLE, PARTIAL for a final line that lacks its
    newline, or None.
    """
    position, total = 0, len(blob)
    while position < total:
        newline = blob.find(b"\n", position)
        if newline == -1:
            yield start + position, total - position, PARTIAL, None
            return
        if newline > position:
            try:
                value = json.loads(blob[position:newline].decode("utf-8"))
            except ValueError:
                yield start + position, newline - position, UNPARSEABLE, None
            else:
                yield start + position, newline - position, None, value
        position = newline + 1


def index_lines(
    blob: bytes,
) -> Iterator[Tuple[int, str, Optional[str], Optional[IndexEntry]]]:
    """Decode ``index.jsonl``: ``(offset, kind, key, entry)`` per line.

    ``kind`` is ENTRY, or UNPARSEABLE or PARTIAL with ``key`` and ``entry``
    None.  Recovery stops at the first damaged line; ``store verify``
    reports every one.
    """
    for offset, _, damage, line in _lines(blob, 0):
        if damage is not None:
            yield offset, damage, None, None
            continue
        try:
            key = line["key"]
            entry = (line["segment"], int(line["offset"]), int(line["length"]))
        except (ValueError, KeyError, TypeError):
            yield offset, UNPARSEABLE, None, None
        else:
            yield offset, ENTRY, key, entry


def segment_lines(
    blob: bytes, start: int = 0
) -> Iterator[Tuple[int, int, str, object]]:
    """Decode a segment's bytes read from byte ``start``.

    Yields ``(offset, length, kind, value)`` per line: HEADER, RECORD or
    FOREIGN with the decoded JSON, or UNPARSEABLE or PARTIAL with None.
    """
    for offset, length, damage, value in _lines(blob, start):
        if damage is not None:
            kind = damage
        elif not isinstance(value, dict):
            kind = FOREIGN
        elif offset == 0 and "store_format" in value:
            kind = HEADER
        else:
            kind = RECORD if isinstance(value.get("key"), str) else FOREIGN
        yield offset, length, kind, value


def read_record(path: Path, offset: int, length: int) -> object:
    """Decode the ``length`` bytes at ``offset`` of segment ``path``.

    Raises:
        OSError, ValueError: when the bytes cannot be read or decoded.
    """
    with path.open("rb") as handle:
        handle.seek(offset)
        return json.loads(handle.read(length).decode("utf-8"))


def segment_files(segments_dir: Path) -> Tuple[Dict[str, int], List[Path]]:
    """Sizes of the segment files in ``segments_dir`` by name, and every
    other entry there (both sorted by name; empty without the directory)."""
    sizes: Dict[str, int] = {}
    foreign: List[Path] = []
    if segments_dir.is_dir():
        for path in sorted(segments_dir.iterdir()):
            if parse_segment_number(path.name) is None or path.is_dir():
                foreign.append(path)
            else:
                sizes[path.name] = path.stat().st_size
    return sizes, foreign


class SegmentResultStore(BaseResultStore):
    """Append-only segment store behind the :class:`BaseResultStore` interface.

    The in-memory index (key -> segment/offset/length) is loaded once on
    first access and kept exact by ``put``, so ``keys()``/``len()``/``in``
    are O(1) dictionary operations -- no directory scan, ever.
    """

    backend_name = "segment"

    def __init__(
        self,
        root: Union[str, Path],
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        super().__init__(root)
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be >= 1")
        self.segment_max_bytes = segment_max_bytes
        self._lock = threading.Lock()
        self._index: Optional[Dict[str, IndexEntry]] = None
        self._active_segment: Optional[str] = None
        self._active_size = 0
        self._segment_handle = None
        self._index_handle = None

    # -- paths -------------------------------------------------------------------

    @property
    def segments_dir(self) -> Path:
        """Directory holding the segment files."""
        return self.root / SEGMENTS_DIR

    @property
    def index_path(self) -> Path:
        """Path of the on-disk index."""
        return self.root / INDEX_FILE

    def segment_path(self, name: str) -> Path:
        """Path of one segment file."""
        return self.segments_dir / name

    # -- mapping interface ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        self._ensure_loaded()
        return key in self._index

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._index)

    def keys(self) -> Iterator[str]:
        """Job keys currently persisted in the store (sorted)."""
        self._ensure_loaded()
        return iter(sorted(self._index))

    def get(self, key: str) -> Optional[SimulationResult]:
        """Load one result, or None when absent or unreadable.

        Every call reads the segment and returns a new result.  An index
        entry pointing at another key's record is a miss.
        """
        record = self._read_record(key)
        if record is None:
            return None
        try:
            return SimulationResult.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def _read_record(self, key: str) -> Optional[dict]:
        """The record indexed under ``key``, or None when absent, unreadable
        or holding another key."""
        self._ensure_loaded()
        entry = self._index.get(key)
        record = None if entry is None else self._read_entry(entry)
        return record if record is not None and record.get("key") == key else None

    def _read_entry(self, entry: IndexEntry) -> Optional[dict]:
        name, offset, length = entry
        try:
            record = read_record(self.segment_path(name), offset, length)
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def iter_records(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, payload)`` per entry, skipping unreadable records.

        Records are yielded in key order; the payload omits the envelope
        ``key`` field, so it is exactly what
        :func:`~repro.campaign.store.entry_payload` built.
        """
        self._ensure_loaded()
        for key in sorted(self._index):
            record = self._read_record(key)
            if record is not None:
                yield key, {name: v for name, v in record.items() if name != "key"}

    # -- write path ----------------------------------------------------------------

    def put_record(self, key: str, payload: dict) -> Path:
        """Append one record and its index line through the single writer."""
        record = dict(payload)
        record["key"] = key
        line = encode_line(record)
        with self._lock:
            self._ensure_loaded()
            self._ensure_writable()
            if self._active_size > self.segment_max_bytes:
                self._segment_handle.close()
                self._segment_handle = None
                self._open_segment(segment_name(self._next_segment_number()))
            offset = self._active_size
            self._segment_handle.write(line)
            self._segment_handle.flush()
            self._active_size = offset + len(line)
            entry = (self._active_segment, offset, len(line) - 1)
            self._index_handle.write(index_line(key, entry))
            self._index_handle.flush()
            self._index[key] = entry
            return self.segment_path(self._active_segment)

    def flush(self) -> None:
        """Flush buffered segment/index appends to the OS."""
        with self._lock:
            if self._segment_handle is not None:
                self._segment_handle.flush()
            if self._index_handle is not None:
                self._index_handle.flush()

    def close(self) -> None:
        """Close the writer handles (reopened transparently on next put)."""
        with self._lock:
            self._close_handles()

    def _close_handles(self) -> None:
        """Close both append handles (called with the lock held)."""
        for handle in (self._segment_handle, self._index_handle):
            if handle is not None:
                handle.close()
        self._segment_handle = self._index_handle = None

    def drop_keys(self, keys) -> int:
        """Remove entries from the index (their segment bytes stay in place).

        Used by ``store gc`` to retire entries whose records are corrupt:
        the append-only segments are never rewritten, but the index -- the
        store's source of truth for membership -- is atomically rewritten
        without them, so a resumed campaign re-runs those jobs.  Returns
        the number of entries actually dropped.
        """
        doomed = set(keys)
        with self._lock:
            self._ensure_loaded()
            present = doomed & set(self._index)
            if not present:
                return 0
            for key in present:
                del self._index[key]
            # The rewrite replaces the index file under the append handle:
            # close both handles so the next put reopens them together.
            self._close_handles()
            self._rewrite_index(self._index)
            return len(present)

    def index_records(self, entries: Dict[str, IndexEntry]) -> None:
        """File records already in the segments under their keys.

        Used by ``store gc`` for complete records that no index line files
        and that recovery's tail walk never reaches (they lie before their
        segment's last indexed record).  The index is rewritten atomically,
        as by :meth:`drop_keys`.
        """
        if not entries:
            return
        with self._lock:
            self._ensure_loaded()
            self._index.update(entries)
            self._close_handles()
            self._rewrite_index(self._index)

    def _rewrite_index(self, entries: Dict[str, IndexEntry]) -> None:
        """Atomically replace ``index.jsonl`` with one line per entry."""
        lines = b"".join(index_line(key, entry) for key, entry in entries.items())
        atomic_write_text(self.index_path, lines.decode("utf-8"), prefix=".index-")

    def _ensure_writable(self) -> None:
        """Open (or reopen) the append handles for the active segment."""
        if self._segment_handle is not None:
            return
        self._open_segment(
            self._active_segment or segment_name(self._next_segment_number())
        )
        self._index_handle = self.index_path.open("ab")

    def _open_segment(self, name: str) -> None:
        """Make ``name`` the active segment; a new one gets its header,
        stamping the provenance the store's marker records (an imported
        store's own), or this environment's when there is no marker."""
        from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

        path = self.segment_path(name)
        fresh = not path.exists() or path.stat().st_size == 0
        self._segment_handle = path.open("ab")
        self._active_segment = name
        if fresh:
            header = encode_line(
                {
                    "segment": name,
                    "store_format": SEGMENT_FORMAT,
                    "trace_generator": stamped_provenance(self.root)
                    or TRACE_GENERATOR_PROVENANCE,
                }
            )
            self._segment_handle.write(header)
            self._segment_handle.flush()
            self._active_size = len(header)

    def _next_segment_number(self) -> int:
        sizes, _ = segment_files(self.segments_dir)
        return max(map(parse_segment_number, sizes), default=0) + 1

    # -- loading and recovery ------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._index is not None:
            return
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / SEGMENT_META_FILE
        if not meta_path.exists():
            meta = {"format": SEGMENT_FORMAT,
                    "segment_max_bytes": self.segment_max_bytes}
            text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
            atomic_write_text(meta_path, text, prefix=".meta-")
        self._index = {}
        self._recover()

    def _recover(self) -> None:
        """Replay the index, repair crash damage, pick the active segment.

        Three kinds of damage are possible after a crash (or an external
        truncation) and all three are repaired here:

        * the index references bytes past a segment's end -- the record was
          lost; the entry is dropped (the job will be re-run on resume);
        * a segment holds complete records past the indexed extent -- the
          crash hit between the segment append and the index append; the
          records are re-indexed (nothing is re-run);
        * a segment's final record is a partial line -- it is truncated off
          so the next append starts at a clean record boundary.

        A segment left with nothing but its header (or nothing at all) is
        deleted: it holds no result, and ``store verify`` would report it as
        a stray file.

        A damaged index line ends the replay; the index is then rewritten
        from the entries before it and whatever the segment tails re-index.
        """
        entries: Dict[str, IndexEntry] = {}
        dirty = False
        try:
            blob = self.index_path.read_bytes()
        except OSError:
            blob = b""
        for _, kind, key, entry in index_lines(blob):
            if kind != ENTRY:
                dirty = True
                break
            entries[key] = entry
        sizes, _ = segment_files(self.segments_dir)

        # Drop entries whose bytes are gone (missing or shortened segment).
        for key, (name, offset, length) in list(entries.items()):
            if sizes.get(name, 0) < offset + length + 1:
                del entries[key]
                dirty = True

        # Scan every segment's unindexed tail: re-index complete records,
        # truncate a partial final record, delete a segment left without one.
        recovered: List[str] = []
        for name, size in list(sizes.items()):
            indexed_end = max(
                (off + n + 1 for seg, off, n in entries.values() if seg == name),
                default=0,
            )
            keys, kept = self._scan_tail(name, indexed_end, size, entries)
            recovered.extend(keys)
            if not kept:
                del sizes[name]

        if dirty:
            # The index file disagrees with what survived: rewrite it so the
            # next open replays clean state (atomic, so a crash here is safe).
            self._rewrite_index(entries)
        elif recovered:
            # Clean index, but some committed records never got their index
            # line: append the recovered entries.
            with self.index_path.open("ab") as handle:
                for key in recovered:
                    handle.write(index_line(key, entries[key]))

        self._index = entries
        # Resume appending to the highest-numbered segment left if it has
        # room (its size read again: recovery may have cut its tail).
        if sizes:
            last = max(sizes)
            size = self.segment_path(last).stat().st_size
            if size <= self.segment_max_bytes:
                self._active_segment, self._active_size = last, size

    def _scan_tail(
        self, name: str, start: int, size: int, entries: Dict[str, IndexEntry]
    ) -> Tuple[List[str], bool]:
        """Re-index complete records from byte ``start`` of segment ``name``
        on and truncate a damaged final line.  A segment with no indexed
        record (``start`` 0) that is left with no line but its header is
        deleted.  Returns the keys recovered and whether the segment is
        kept."""
        path = self.segment_path(name)
        blob = b""
        if start < size:
            try:
                with path.open("rb") as handle:
                    handle.seek(start)
                    blob = handle.read()
            except OSError:
                return [], True
        recovered = []
        kept = start > 0
        for offset, length, kind, record in segment_lines(blob, start):
            if kind in (UNPARSEABLE, PARTIAL):
                # Stop indexing at damage.  A damaged final line is cut off;
                # damage mid-file stays for ``store verify`` to report.
                if offset + length + 1 >= start + len(blob):
                    try:
                        with path.open("r+b") as handle:
                            handle.truncate(offset)
                    except OSError:
                        return recovered, True
                else:
                    kept = True
                break
            if kind == RECORD:
                key = record["key"]
                if key not in entries:
                    recovered.append(key)
                entries[key] = (name, offset, length)
            kept = kept or kind != HEADER
        if not kept:
            try:
                path.unlink()
            except OSError:
                return recovered, True
        return recovered, kept
