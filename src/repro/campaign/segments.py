"""Indexed, append-only segment store for campaign results.

The one on-disk layout of a campaign result store.  A per-file layout pays
one ``open``/``write``/``rename`` per result and a directory scan per
resume -- fine at hundreds of points, a syscall storm at 100k.  This
module uses the classic log-structured layout instead:

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

Crash safety is recovery-based rather than rename-based: on open the store
replays the index, drops entries pointing past a segment's end (the record
bytes were lost), re-indexes complete records that never got their index
line (crash between the two appends), and truncates a partial record off
the active segment's tail.  A result is therefore either fully durable or
cleanly absent -- a resumed campaign re-runs exactly the lost jobs.

Writes go through a single in-process writer (a lock around two buffered
appends); a persistent worker pool streams results back to the campaign
parent, which is that single writer.  One process writes a store at a
time: two processes appending to one store concurrently would interleave
their segment and index appends.

Reads through :meth:`SegmentResultStore.get` are memoised: the store keeps
the decoded ``result`` dicts of the last :data:`DECODED_CACHE_ENTRIES` keys
it served, so a query service answering the same grid again skips the
segment read and the JSON decode.  Every call still builds a fresh
:class:`~repro.core.results.SimulationResult` (``from_dict`` copies every
container), so no caller shares mutable state with the cache or another
caller.  ``put_record`` and ``drop_keys`` evict the keys they touch;
``iter_records`` and ``store verify`` always read the segments.  A record
that holds another key than the index entry pointing at it reads as a
miss everywhere (``store verify`` reports it as an index mismatch).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

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

#: Decoded results :meth:`SegmentResultStore.get` keeps, least recently
#: used first.  An entry is ~7 KiB at the scaled geometry, and 256 of them
#: cover every point of a served three-application grid at three
#: retentions (161 keys).
DECODED_CACHE_ENTRIES = 256


def segment_name(number: int) -> str:
    """Canonical file name of segment ``number`` (1-based)."""
    return f"seg-{number:08d}.jsonl"


def parse_segment_number(name: str) -> Optional[int]:
    """Inverse of :func:`segment_name`; None for foreign file names."""
    if not (name.startswith("seg-") and name.endswith(".jsonl")):
        return None
    digits = name[len("seg-"):-len(".jsonl")]
    return int(digits) if digits.isdigit() and len(digits) == 8 else None


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
        self._index: Optional[Dict[str, Tuple[str, int, int]]] = None
        self._decoded: "OrderedDict[str, dict]" = OrderedDict()
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

        Every call returns a new result; a key read before is rebuilt from
        its cached decoded dict instead of from the segment.  An index entry
        pointing at another key's record is a miss, and nothing of that
        record enters the cache.
        """
        with self._lock:
            data = self._decoded.get(key)
            if data is not None:
                self._decoded.move_to_end(key)
        if data is not None:
            return SimulationResult.from_dict(data)
        self._ensure_loaded()
        entry = self._index.get(key)
        record = None if entry is None else self._read_entry(entry)
        if record is None or record.get("key") != key:
            return None
        try:
            data = record["result"]
            result = SimulationResult.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None
        with self._lock:
            # Skip the cache if a put or drop moved the key meanwhile.
            if self._index is not None and self._index.get(key) == entry:
                self._decoded[key] = data
                if len(self._decoded) > DECODED_CACHE_ENTRIES:
                    self._decoded.popitem(last=False)
        return result

    def _read_record(self, key: str) -> Optional[dict]:
        """The record indexed under ``key``, or None when absent, unreadable
        or holding another key."""
        self._ensure_loaded()
        entry = self._index.get(key)
        record = None if entry is None else self._read_entry(entry)
        return record if record is not None and record.get("key") == key else None

    def _read_entry(self, entry: Tuple[str, int, int]) -> Optional[dict]:
        name, offset, length = entry
        try:
            with self.segment_path(name).open("rb") as handle:
                handle.seek(offset)
                blob = handle.read(length)
            record = json.loads(blob.decode("utf-8"))
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
            if record is None:
                continue
            payload = {
                name: value for name, value in record.items() if name != "key"
            }
            yield key, payload

    # -- write path ----------------------------------------------------------------

    def put_record(self, key: str, payload: dict) -> Path:
        """Append one record and its index line through the single writer."""
        record = dict(payload)
        record["key"] = key
        line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        with self._lock:
            self._ensure_loaded()
            self._ensure_writable()
            if self._active_size > self.segment_max_bytes:
                self._roll_segment()
            offset = self._active_size
            self._segment_handle.write(line + b"\n")
            self._segment_handle.flush()
            self._active_size = offset + len(line) + 1
            index_line = json.dumps(
                {
                    "key": key,
                    "segment": self._active_segment,
                    "offset": offset,
                    "length": len(line),
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            self._index_handle.write(index_line + b"\n")
            self._index_handle.flush()
            self._index[key] = (self._active_segment, offset, len(line))
            self._decoded.pop(key, None)
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
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None

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
                self._decoded.pop(key, None)
            lines = [
                json.dumps(
                    {"key": key, "segment": seg, "offset": off, "length": length},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                for key, (seg, off, length) in self._index.items()
            ]
            # The rewrite replaces the index file under the append handle:
            # close both handles so the next put reopens them together.
            self._close_handles()
            atomic_write_text(
                self.index_path,
                "".join(line + "\n" for line in lines),
                prefix=".index-",
            )
            return len(present)

    # -- loading and recovery ------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._index is not None:
            return
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / SEGMENT_META_FILE
        if not meta_path.exists():
            atomic_write_text(
                meta_path,
                json.dumps(
                    {
                        "format": SEGMENT_FORMAT,
                        "segment_max_bytes": self.segment_max_bytes,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                prefix=".meta-",
            )
        self._index = {}
        self._recover()

    def _ensure_writable(self) -> None:
        """Open (or reopen) the append handles for the active segment."""
        if self._segment_handle is not None:
            return
        if self._active_segment is None:
            self._active_segment = segment_name(self._next_segment_number())
            self._active_size = 0
        path = self.segment_path(self._active_segment)
        fresh = not path.exists() or path.stat().st_size == 0
        self._segment_handle = path.open("ab")
        if fresh:
            header = json.dumps(
                self._segment_header(self._active_segment),
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            self._segment_handle.write(header + b"\n")
            self._segment_handle.flush()
            self._active_size = len(header) + 1
        self._index_handle = self.index_path.open("ab")

    def _segment_header(self, name: str) -> dict:
        """The header line of a new segment.

        It stamps the provenance the store's marker records -- this
        environment's, once ``put`` has checked it, or an imported store's
        own -- and this environment's when there is no marker yet.
        """
        from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

        return {
            "segment": name,
            "store_format": SEGMENT_FORMAT,
            "trace_generator": stamped_provenance(self.root)
            or TRACE_GENERATOR_PROVENANCE,
        }

    def _next_segment_number(self) -> int:
        numbers = [
            parse_segment_number(path.name)
            for path in self.segments_dir.glob("seg-*.jsonl")
        ]
        numbers = [number for number in numbers if number is not None]
        return max(numbers, default=0) + 1

    def _roll_segment(self) -> None:
        """Start a fresh segment (called with the lock held)."""
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None
        self._active_segment = segment_name(self._next_segment_number())
        self._active_size = 0
        path = self.segment_path(self._active_segment)
        self._segment_handle = path.open("ab")
        header = json.dumps(
            self._segment_header(self._active_segment),
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        self._segment_handle.write(header + b"\n")
        self._segment_handle.flush()
        self._active_size = len(header) + 1

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
        """
        index_entries, index_dirty = self._replay_index_file()
        sizes: Dict[str, int] = {}
        for path in sorted(self.segments_dir.glob("seg-*.jsonl")):
            if parse_segment_number(path.name) is not None:
                sizes[path.name] = path.stat().st_size

        # Drop entries whose bytes are gone (missing or shortened segment).
        dropped = False
        for key, (name, offset, length) in list(index_entries.items()):
            if sizes.get(name, 0) < offset + length + 1:
                del index_entries[key]
                dropped = True

        # Scan every segment's unindexed tail: re-index complete records,
        # truncate a partial final record.
        recovered: list = []
        for name, size in sizes.items():
            indexed_end = max(
                (
                    offset + length + 1
                    for (seg, offset, length) in index_entries.values()
                    if seg == name
                ),
                default=0,
            )
            recovered.extend(self._scan_tail(name, indexed_end, size, index_entries))

        if index_dirty or dropped:
            # The index file disagrees with what survived: rewrite it so the
            # next open replays clean state (atomic, so a crash here is safe).
            lines = [
                json.dumps(
                    {"key": key, "segment": seg, "offset": off, "length": length},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                for key, (seg, off, length) in index_entries.items()
            ]
            atomic_write_text(
                self.index_path,
                "".join(line + "\n" for line in lines),
                prefix=".index-",
            )
        elif recovered:
            # Clean index, but some committed records never got their index
            # line: append the recovered entries.
            with self.index_path.open("ab") as handle:
                for key in recovered:
                    seg, off, length = index_entries[key]
                    handle.write(
                        json.dumps(
                            {
                                "key": key,
                                "segment": seg,
                                "offset": off,
                                "length": length,
                            },
                            sort_keys=True,
                            separators=(",", ":"),
                        ).encode("utf-8")
                        + b"\n"
                    )

        self._index = index_entries
        # Resume appending to the highest-numbered segment if it has room.
        names = sorted(sizes)
        if names:
            last = names[-1]
            size = self.segment_path(last).stat().st_size
            if size <= self.segment_max_bytes:
                self._active_segment = last
                self._active_size = size

    def _replay_index_file(self) -> Tuple[Dict[str, Tuple[str, int, int]], bool]:
        """Read index.jsonl; returns (entries, dirty flag).

        ``dirty`` is set when the file holds a partial or unparseable line
        (crash mid index append) -- recovery then rewrites it from the
        surviving entries.
        """
        entries: Dict[str, Tuple[str, int, int]] = {}
        dirty = False
        try:
            blob = self.index_path.read_bytes()
        except OSError:
            return entries, False
        position = 0
        total = len(blob)
        while position < total:
            newline = blob.find(b"\n", position)
            if newline == -1:
                dirty = True  # partial final line (crash mid index append)
                break
            raw = blob[position:newline]
            if raw:
                try:
                    entry = json.loads(raw.decode("utf-8"))
                    key = entry["key"]
                    name = entry["segment"]
                    offset = int(entry["offset"])
                    length = int(entry["length"])
                except (ValueError, KeyError, TypeError):
                    dirty = True
                    break
                entries[key] = (name, offset, length)
            position = newline + 1
        return entries, dirty

    def _scan_tail(
        self,
        name: str,
        start: int,
        size: int,
        index_entries: Dict[str, Tuple[str, int, int]],
    ) -> list:
        """Re-index complete unindexed records; truncate a partial tail.

        Returns the keys recovered from this segment.
        """
        if start >= size:
            return []
        path = self.segment_path(name)
        try:
            with path.open("rb") as handle:
                handle.seek(start)
                blob = handle.read()
        except OSError:
            return []
        recovered = []
        truncate_at: Optional[int] = None
        relative = 0
        total = len(blob)
        while relative < total:
            newline = blob.find(b"\n", relative)
            absolute = start + relative
            if newline == -1:
                truncate_at = absolute  # partial final record
                break
            raw = blob[relative:newline]
            if raw:
                try:
                    record = json.loads(raw.decode("utf-8"))
                except ValueError:
                    # Mid-file corruption: stop indexing here.  If it is the
                    # final line, cut it off; otherwise leave the bytes for
                    # ``store verify`` to report.
                    if newline + 1 >= total:
                        truncate_at = absolute
                    break
                if (
                    absolute == 0
                    and isinstance(record, dict)
                    and "store_format" in record
                ):
                    pass  # segment header, not a record
                elif isinstance(record, dict) and isinstance(record.get("key"), str):
                    key = record["key"]
                    if key not in index_entries:
                        recovered.append(key)
                    index_entries[key] = (name, absolute, len(raw))
            relative = newline + 1
        if truncate_at is not None:
            try:
                with path.open("r+b") as handle:
                    handle.truncate(truncate_at)
            except OSError:
                pass
        return recovered
