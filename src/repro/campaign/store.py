"""Persistent result stores keyed by job hash.

Every computed :class:`~repro.core.results.SimulationResult` is persisted
under a content-hash key in an indexed, append-only segment store
(:class:`~repro.campaign.segments.SegmentResultStore`, the only code that
encodes or decodes its index and segment files), opened through
:func:`open_store`.  This module holds what does not depend on that
format: the root directory, the canonical entry payload and the
trace-generator provenance marker (:func:`read_provenance`).

Because keys are content hashes of the job (workload recipe + full
configuration), the store doubles as a cache: re-running a campaign with
``resume=True`` skips every point already persisted, and extending the grid
(a new retention time, a new application) only simulates the new points.

Earlier versions wrote one ``<key>.json`` file per result.  Such a legacy
directory is read only by :class:`ResultStore`, and only to import it into
a segment store (``store migrate``); :func:`open_store` refuses it.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

from repro.campaign.jobs import Job
from repro.core.results import SimulationResult
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

if TYPE_CHECKING:
    from repro.campaign.segments import SegmentResultStore

#: Store-level metadata file recording which trace generator produced the
#: results inside.  Underscore-prefixed so it can never collide with a job
#: key (keys are hex digests) and is never taken for a legacy entry.
PROVENANCE_FILE = "_trace_provenance.json"


class StoreProvenanceError(RuntimeError):
    """A store holds results from a different trace-generator environment.

    The numpy and scalar trace generators draw different (equally valid)
    streams from the same workload recipe; mixing their results in one
    store would make sweep figures silently incomparable.  Job hashes
    already keep the two apart (the provenance is part of the digest); this
    error makes the mixing attempt loud instead of silently recomputing
    every point into a mongrel store.
    """


def atomic_write_text(path: Path, text: str, prefix: str = ".write-") -> None:
    """Write a file atomically (temp file + ``os.replace``) in its directory.

    A crash mid-write never leaves a truncated file under the final name.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def entry_payload(job: Job, result: SimulationResult) -> dict:
    """The canonical persisted payload of one (job, result) pair.

    Legacy per-file entries hold the same payload, so an imported record is
    byte-identical after re-serialisation.
    """
    return {
        "job": {
            "key": job.key(),
            "application": job.application,
            "label": job.label,
            "length_scale": job.workload.length_scale,
            "seed": job.workload.seed,
        },
        # The canonical structure the key is a SHA-256 of; lets
        # ``store verify`` re-check the content hash of an entry
        # without the original Job objects.
        "hash_payload": job.hash_payload(),
        "result": result.to_dict(),
    }


class BaseResultStore:
    """Root directory handling + trace-generator provenance.

    :class:`~repro.campaign.segments.SegmentResultStore` supplies the
    mapping interface and ``put_record``; :meth:`put` builds the canonical
    payload and checks provenance before handing it over.
    """

    #: Short name reported in answer provenance and ``/v1/health``.
    backend_name = "base"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._provenance_checked = False

    # -- provenance --------------------------------------------------------------

    def check_provenance(self) -> None:
        """Stamp or verify the store's trace-generator provenance.

        Idempotent and cheap after the first call.  Raises
        :class:`StoreProvenanceError` when the store was stamped by the
        other environment or its marker is damaged (:func:`read_provenance`).
        Stores predating the stamp are stamped with the current
        environment on their next write (their old entries use
        pre-provenance job keys, which no current campaign can enumerate,
        so no mixing can occur through them).
        """
        if self._provenance_checked:
            return
        stamped = read_provenance(self.root)
        if stamped is None:
            # Atomic like every other store write: a crash mid-stamp must
            # not leave a truncated marker that poisons the next check.
            stamp = {"trace_generator": TRACE_GENERATOR_PROVENANCE}
            atomic_write_text(
                self.root / PROVENANCE_FILE,
                json.dumps(stamp, indent=2) + "\n",
                prefix=".provenance-",
            )
        elif stamped != TRACE_GENERATOR_PROVENANCE:
            raise StoreProvenanceError(
                f"store {self.root} holds results generated with the "
                f"{stamped!r} trace generator, but this environment uses "
                f"{TRACE_GENERATOR_PROVENANCE!r} (numpy "
                f"{'missing' if TRACE_GENERATOR_PROVENANCE == 'scalar' else 'installed'}); "
                f"use a separate store per environment"
            )
        self._provenance_checked = True

    # -- shared write path -------------------------------------------------------

    def put(self, job: Job, result: SimulationResult) -> Path:
        """Persist one job's result; returns the file written.

        Raises:
            StoreProvenanceError: when the store was stamped by an
                environment with the other trace generator.
        """
        self.check_provenance()
        return self.put_record(job.key(), entry_payload(job, result))

    def flush(self) -> None:
        """Push buffered writes to disk."""

    def close(self) -> None:
        """Release file handles."""

    def __enter__(self) -> "BaseResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_provenance(root: Union[str, Path]) -> Optional[str]:
    """The trace generator a store's provenance marker names, or None when
    the store has no marker.

    Raises:
        StoreProvenanceError: when the marker cannot be read or names no
            generator -- a damaged marker must not silently disable the
            guard.
    """
    root = Path(root)
    marker = root / PROVENANCE_FILE
    try:
        recorded = json.loads(marker.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise StoreProvenanceError(
            f"store {root} has an unreadable provenance marker "
            f"({marker.name}: {error}); refusing to guess which trace "
            f"generator produced its results -- delete or restore the "
            f"marker by hand"
        ) from error
    # A marker that parses but has the wrong shape is just as damaged as
    # one that does not parse: never restamp over it.
    stamped = recorded.get("trace_generator") if isinstance(recorded, dict) else None
    if not isinstance(stamped, str):
        raise StoreProvenanceError(
            f"store {root} has a malformed provenance marker "
            f"({marker.name}: no 'trace_generator' string); delete "
            f"or restore the marker by hand"
        )
    return stamped


def stamped_provenance(root: Union[str, Path]) -> Optional[str]:
    """Like :func:`read_provenance`, but None for a damaged marker too."""
    try:
        return read_provenance(root)
    except StoreProvenanceError:
        return None


def legacy_entry_keys(root: Union[str, Path]) -> List[str]:
    """Keys of the ``<key>.json`` entries of a legacy per-file store (sorted).

    Empty for a segment store, whose meta file marks it (a stray ``.json``
    file there is an orphan for ``store gc``), and for a directory holding
    only underscore-prefixed metadata such as the provenance stamp -- which
    is all a campaign killed before its first result leaves behind.
    """
    from repro.campaign.segments import SEGMENT_META_FILE

    root = Path(root)
    if (root / SEGMENT_META_FILE).exists():
        return []
    return sorted(
        path.stem
        for path in root.glob("*.json")
        if not path.name.startswith(("_", "."))
    )


def refuse_legacy_store(root: Union[str, Path]) -> None:
    """Raise ``ValueError`` naming ``store migrate`` if ``root`` is legacy."""
    count = len(legacy_entry_keys(root))
    if count:
        raise ValueError(
            f"store {root} holds {count} entries in the legacy "
            f"one-file-per-result layout; import it into a segment store "
            f"first: python -m repro.cli store migrate {root} <new-dir>"
        )


class ResultStore:
    """Read-only view of a legacy per-file store (``<root>/<key>.json``).

    Nothing writes this layout any more; ``store migrate`` reads a legacy
    directory through this class to import it into a segment store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def keys(self) -> List[str]:
        """Keys of the directory's entries (sorted)."""
        return legacy_entry_keys(self.root)

    def __len__(self) -> int:
        return len(self.keys())

    def get(self, key: str) -> Optional[dict]:
        """The raw payload of one entry, or None when absent or unreadable."""
        try:
            with (self.root / f"{key}.json").open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def iter_records(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(key, payload)`` per entry, skipping unreadable files."""
        for key in self.keys():
            payload = self.get(key)
            if payload is not None:
                yield key, payload


def open_store(
    root: Union[str, Path], backend: str = "segment", **kwargs
) -> "SegmentResultStore":
    """Open (or create) the segment result store at ``root``.

    ``backend`` accepts only ``"segment"``, the one layout.  A directory
    holding a legacy per-file store is refused with a ``ValueError`` that
    names ``store migrate``; a directory holding only the provenance stamp
    opens as a segment store.
    """
    if backend != "segment":
        raise ValueError(f"unknown store backend {backend!r} (only 'segment')")
    from repro.campaign.segments import SegmentResultStore

    refuse_legacy_store(root)
    return SegmentResultStore(root, **kwargs)
