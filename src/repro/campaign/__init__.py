"""Campaign engine: parallel, resumable, streaming execution of sweeps.

The Table 5.4 grid is embarrassingly parallel -- every (application, policy
point) pair is an independent simulation.  This package turns a sweep into
a *campaign*:

* :mod:`repro.campaign.jobs` enumerates the grid as a flat list of
  content-addressed :class:`~repro.campaign.jobs.Job` objects (config hash x
  workload recipe);
* :mod:`repro.campaign.executors` runs jobs through pluggable executors --
  in-process :class:`~repro.campaign.executors.SerialExecutor` or the
  persistent-pool :class:`~repro.campaign.executors.ParallelExecutor`,
  which deals work-stealing chunks to worker processes and streams results
  back in completion order, bit-identical to a serial run;
* :mod:`repro.campaign.segments` persists every result keyed by job hash in
  indexed append-only segments
  (:class:`~repro.campaign.segments.SegmentResultStore`, opened with
  :func:`~repro.campaign.store.open_store`) -- resumed or extended
  campaigns only simulate points they have never seen;
  :mod:`repro.campaign.maintenance` lists, repairs and verifies a store,
  and imports a legacy one-file-per-result directory;
* :mod:`repro.campaign.engine` ties it together:
  :func:`~repro.campaign.engine.stream_campaign` yields ``(job, result)``
  as each completes (bounded memory at any grid size) and
  :func:`~repro.campaign.engine.run_campaign`, the one way to run a
  sweep, drains that stream into the familiar
  :class:`~repro.core.sweep.SweepResult` plus execution statistics;
* :mod:`repro.campaign.view` aggregates straight from a store:
  :class:`~repro.campaign.view.StoreSweep` duck-types ``SweepResult`` for
  the figure/table layer while loading results on demand.
"""

from repro.campaign.engine import (
    CampaignStats,
    CampaignStream,
    run_campaign,
    stream_campaign,
)
from repro.campaign.executors import (
    ParallelExecutor,
    SerialExecutor,
    execute_job,
    group_jobs_by_workload,
)
from repro.campaign.jobs import Job, enumerate_jobs
from repro.campaign.maintenance import (
    migrate_store,
    store_gc,
    store_ls,
    store_verify,
)
from repro.campaign.segments import SegmentResultStore
from repro.campaign.store import (
    BaseResultStore,
    StoreProvenanceError,
    open_store,
)
from repro.campaign.view import StoreSweep

__all__ = [
    "BaseResultStore",
    "CampaignStats",
    "CampaignStream",
    "Job",
    "ParallelExecutor",
    "SegmentResultStore",
    "SerialExecutor",
    "StoreProvenanceError",
    "StoreSweep",
    "enumerate_jobs",
    "execute_job",
    "group_jobs_by_workload",
    "migrate_store",
    "open_store",
    "run_campaign",
    "store_gc",
    "store_ls",
    "store_verify",
    "stream_campaign",
]
