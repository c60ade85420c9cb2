"""Content-addressed campaign jobs.

A :class:`Job` is the unit of work of a campaign: one simulation of one
workload under one configuration.  Its identity is a SHA-256 digest of the
canonical JSON form of the workload recipe and the simulation configuration,
so two jobs with the same hash are guaranteed to produce the same
:class:`~repro.core.results.SimulationResult` (the simulator is
deterministic), and a persisted result can be reused by any later campaign
that enumerates the same point -- the basis of ``--resume`` and incremental
grid extension.

Digests are also memoised by value across :class:`Job` objects: every
served query normalises into freshly built jobs, and canonicalising their
nested configurations is far dearer than looking up a previous digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.config.parameters import ArchitectureConfig, SimulationConfig
from repro.core.sweep import PolicyPoint
from repro.workloads.suite import WorkloadRequest
from repro.workloads.synthetic import TRACE_GENERATOR_PROVENANCE

#: Display label used for the full-SRAM baseline job.
BASELINE_LABEL = "SRAM baseline"

#: Digests of jobs hashed earlier in this process, least recently used
#: first, keyed by ``(repr(workload), repr(config), trace provenance)``.
#: Keys are reprs, not the frozen dataclasses themselves: ``1 == 1.0``, so
#: a dataclass key would hand a ``length_scale=1.0`` job the digest of a
#: ``length_scale=1`` one, although the two canonicalise (and hash)
#: differently.  A dataclass repr names every field with its type-faithful
#: repr, as long as no config class overrides ``__repr__`` or hides a field
#: from it (a test guards both).  An entry holds ~1.5 KB of reprs at the
#: scaled geometry, so the bound caps the memo near 6 MB.
_DIGESTS: "OrderedDict[Tuple[str, str, str], str]" = OrderedDict()
_DIGESTS_MAX = 4096
_DIGESTS_LOCK = threading.Lock()


def canonical_value(obj: object) -> object:
    """Recursively convert dataclasses/enums/sequences to JSON-able values.

    The conversion is *canonical*: the same logical object always produces
    the same nested structure, independent of dict ordering or identity, so
    the JSON dump (with sorted keys) is a stable hashing payload.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: canonical_value(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_value(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


@dataclass(frozen=True)
class Job:
    """One content-addressed simulation of a campaign.

    Attributes:
        workload: seeded recipe for regenerating the workload (picklable, so
            parallel workers rebuild the trace instead of receiving it).
        config: the full simulation configuration for this point.
        point_label: the sweep-point label (``50us/R.WB(32,32)``), or None
            for the full-SRAM baseline.
    """

    workload: WorkloadRequest
    config: SimulationConfig
    point_label: Optional[str] = None

    @property
    def application(self) -> str:
        """Application name this job simulates."""
        return self.workload.name

    @property
    def is_baseline(self) -> bool:
        """True for the full-SRAM baseline job of an application."""
        return self.point_label is None

    @property
    def label(self) -> str:
        """Human-readable label for progress messages."""
        return BASELINE_LABEL if self.is_baseline else self.point_label

    def key(self) -> str:
        """Content hash identifying this job (and its result) forever.

        The digest covers everything that influences the simulation output:
        the workload recipe (name, length scale, seed), the complete
        configuration (architecture geometry, cell technology, refresh
        policy, simulator seed), and the trace-generator provenance of this
        environment (numpy vs scalar fallback -- the two draw different,
        equally valid streams from the same recipe, so their results must
        never alias).
        """
        return self._digest

    def hash_payload(self) -> dict:
        """The canonical nested structure the job key is a digest of.

        Persisted alongside stored results so ``store verify`` can re-derive
        the content hash of an entry without reconstructing the original
        :class:`Job` objects.
        """
        return {
            "workload": canonical_value(self.workload),
            "config": canonical_value(self.config),
            "trace_generator": TRACE_GENERATOR_PROVENANCE,
        }

    @cached_property
    def _digest(self) -> str:
        # Memoised per object (cached_property writes straight into
        # __dict__, bypassing the frozen-dataclass setattr guard) and by
        # value across objects: canonicalising the nested config is the
        # expensive part, a repr of it costs a tenth of that.
        memo_key = (
            repr(self.workload),
            repr(self.config),
            TRACE_GENERATOR_PROVENANCE,
        )
        with _DIGESTS_LOCK:
            digest = _DIGESTS.get(memo_key)
            if digest is not None:
                _DIGESTS.move_to_end(memo_key)
                return digest
        digest = hash_payload_digest(self.hash_payload())
        with _DIGESTS_LOCK:
            _DIGESTS[memo_key] = digest
            if len(_DIGESTS) > _DIGESTS_MAX:
                _DIGESTS.popitem(last=False)
        return digest


def hash_payload_digest(payload: dict) -> str:
    """SHA-256 digest of a canonical job payload (the store's file key)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def enumerate_jobs(
    requests: Sequence[WorkloadRequest],
    points: Sequence[PolicyPoint],
    architecture: ArchitectureConfig,
) -> List[Job]:
    """Flatten a sweep into jobs: per application, the baseline then each point.

    A serial campaign simulates and assembles jobs in this order, so its
    progress output and the sweep's insertion order follow the requests
    and the grid.
    """
    jobs: List[Job] = []
    baseline_config = SimulationConfig.sram(architecture)
    for request in requests:
        jobs.append(Job(workload=request, config=baseline_config))
        for point in points:
            jobs.append(
                Job(
                    workload=request,
                    config=point.simulation_config(architecture),
                    point_label=point.label,
                )
            )
    return jobs
