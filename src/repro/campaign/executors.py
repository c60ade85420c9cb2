"""Pluggable campaign executors.

Both executors consume a list of :class:`~repro.campaign.jobs.Job` and yield
``(job, SimulationResult)`` pairs *as each job completes*, so the campaign
engine can commit results to the store incrementally with bounded memory:

* :class:`SerialExecutor` runs jobs in-process, regenerating each
  workload from the job's :class:`WorkloadRequest` and caching per
  application so the 43 points of one application share one trace.
* :class:`ParallelExecutor` fans jobs out over a *persistent*
  :class:`concurrent.futures.ProcessPoolExecutor`: the pool is created
  lazily on first use and reused across ``run`` calls, so repeated
  campaigns (a resumed sweep, a service answering queries) pay the
  fork-and-import cost once.  Only the tiny picklable jobs (recipe +
  config) cross the process boundary; each worker rebuilds the workload
  from its seed, so results are bit-identical to a serial run while the
  campaign scales with cores.

Work is dealt in small chunks with work-stealing refill: the per-workload
grouping is computed once (:func:`group_jobs_by_workload`), each free
worker pulls the next chunk from the workload group with the most backlog,
and at most a bounded number of chunks are in flight -- no worker idles
behind a pre-assigned giant batch, no 100k-job campaign materialises all
its futures (or their results) at once, and a slow consumer of the result
iterator back-pressures submission instead of buffering unboundedly.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Callable,
    Deque,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaign.jobs import Job
from repro.config.parameters import ArchitectureConfig
from repro.core.results import SimulationResult
from repro.core.simulator import RefrintSimulator
from repro.workloads.suite import ApplicationWorkload, WorkloadRequest

#: Optional callback receiving a human-readable message per job.
ProgressFn = Callable[[str], None]

#: Per-process LRU of regenerated workloads: trace generation is pure in
#: (request, architecture), so jobs of the same application reuse one trace
#: -- in the parent for serial runs and in each worker for parallel ones.
#: It outlives a ``run``: a service's backfills arrive one job per batch, and
#: the backfills of one workload share its trace.  Jobs are enumerated
#: contiguously per application, so a handful of entries captures nearly
#: all reuse; the bound keeps long-lived processes (notebooks, services)
#: from pinning every trace ever generated.
_WORKLOAD_CACHE: "OrderedDict[Tuple[WorkloadRequest, ArchitectureConfig], ApplicationWorkload]" = (
    OrderedDict()
)
_WORKLOAD_CACHE_MAX = 4
#: Guards every compound use of the cache: the service runs executor
#: batches in worker threads, and one batch's eviction must not land
#: between another's lookup and its ``move_to_end``.
_WORKLOAD_CACHE_LOCK = threading.Lock()

#: Upper bound on jobs per submitted chunk.  Small enough that a completed
#: chunk's results are a bounded buffer and stealing stays fine-grained,
#: large enough to amortise the per-future pickling overhead.
CHUNK_CAP = 32


def build_workload(job: Job) -> ApplicationWorkload:
    """Regenerate (or fetch the cached) workload for one job."""
    cache_key = (job.workload, job.config.architecture)
    with _WORKLOAD_CACHE_LOCK:
        workload = _WORKLOAD_CACHE.get(cache_key)
        if workload is not None:
            _WORKLOAD_CACHE.move_to_end(cache_key)
            return workload
    # Built outside the lock: a trace takes up to seconds, and two threads
    # racing on one key build equal traces.
    workload = job.workload.build(job.config.architecture)
    with _WORKLOAD_CACHE_LOCK:
        _WORKLOAD_CACHE[cache_key] = workload
        if len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_MAX:
            _WORKLOAD_CACHE.popitem(last=False)
    return workload


def execute_job(job: Job) -> SimulationResult:
    """Run one job to completion (the worker-process entry point)."""
    return RefrintSimulator(job.config).run(build_workload(job))


def execute_job_batch(jobs: Sequence[Job]) -> "list[SimulationResult]":
    """Run a batch of jobs in one worker (all sharing one workload key).

    Batches are chunks of one workload group
    (:func:`group_jobs_by_workload`), so the first job regenerates (or
    finds cached) the chunk's trace and the rest reuse it -- the
    worker-side memoisation that keeps a many-point sweep from rebuilding
    the same application's trace once per point.
    """
    return [execute_job(job) for job in jobs]


def group_jobs_by_workload(
    jobs: Sequence[Job],
) -> "OrderedDict[Tuple[WorkloadRequest, ArchitectureConfig], List[Job]]":
    """Group jobs by (workload recipe, architecture), preserving job order.

    Computed **once** per campaign and reused for every pool refill -- the
    grouping is a full pass over the job list, which must not be repeated
    each time a worker asks for another chunk.
    """
    grouped: "OrderedDict[Tuple[WorkloadRequest, ArchitectureConfig], List[Job]]" = (
        OrderedDict()
    )
    for job in jobs:
        grouped.setdefault((job.workload, job.config.architecture), []).append(job)
    return grouped


def plan_chunk(
    queues: Sequence[Deque[Job]], max_workers: int, chunk_cap: int = CHUNK_CAP
) -> "list[Job]":
    """Steal the next chunk of jobs from the group with the most backlog.

    Pulls from the front of the longest queue (preserving within-group
    submission order) and sizes the chunk so every group still splits into
    roughly ``2 x max_workers`` chunks -- fine-grained enough that a free
    worker always finds work, coarse enough to amortise submission cost.
    Returns an empty list when every queue is drained.
    """
    queue = max(queues, key=len, default=None)
    if queue is None or not queue:
        return []
    size = max(1, min(chunk_cap, -(-len(queue) // (2 * max_workers))))
    return [queue.popleft() for _ in range(min(size, len(queue)))]


class SerialExecutor:
    """Run campaign jobs one after another in the calling process."""

    def run(
        self, jobs: Sequence[Job], progress: Optional[ProgressFn] = None
    ) -> Iterator[Tuple[Job, SimulationResult]]:
        """Yield ``(job, result)`` in submission order."""
        for job in jobs:
            if progress is not None:
                progress(f"{job.application}: {job.label}")
            yield job, execute_job(job)


class ParallelExecutor:
    """Run campaign jobs across a persistent pool of worker processes."""

    def __init__(self, max_workers: int, chunk_cap: int = CHUNK_CAP) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunk_cap < 1:
            raise ValueError("chunk_cap must be >= 1")
        self.max_workers = max_workers
        self.chunk_cap = chunk_cap
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Create the worker pool on first use; reuse it afterwards."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            # Reap the workers when the executor object is dropped without
            # an explicit shutdown() (wait=False: never block a GC).
            self._finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=False
            )
        return self._pool

    def shutdown(self) -> None:
        """Stop the worker pool (a later ``run`` recreates it)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def run(
        self, jobs: Sequence[Job], progress: Optional[ProgressFn] = None
    ) -> Iterator[Tuple[Job, SimulationResult]]:
        """Yield ``(job, result)`` in completion order, streaming.

        The per-workload grouping is computed once; chunks of at most
        ``chunk_cap`` jobs are dealt to the pool with work-stealing refill
        (each completion triggers one steal from the group with the most
        backlog) and at most ``2 x max_workers`` chunks are in flight.
        Because refill happens between yields, a consumer that stops
        pulling stops submission too -- natural backpressure.
        """
        if not jobs:
            return
        queues: List[Deque[Job]] = [
            deque(group) for group in group_jobs_by_workload(jobs).values()
        ]
        pool = self._ensure_pool()
        max_inflight = 2 * self.max_workers
        future_to_chunk = {}
        try:
            while len(future_to_chunk) < max_inflight:
                chunk = plan_chunk(queues, self.max_workers, self.chunk_cap)
                if not chunk:
                    break
                future_to_chunk[pool.submit(execute_job_batch, chunk)] = chunk
            while future_to_chunk:
                done, _ = wait(future_to_chunk, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = future_to_chunk.pop(future)
                    results = future.result()
                    # Refill before yielding so workers stay busy while the
                    # consumer processes this chunk's results.
                    while len(future_to_chunk) < max_inflight:
                        refill = plan_chunk(queues, self.max_workers, self.chunk_cap)
                        if not refill:
                            break
                        future_to_chunk[pool.submit(execute_job_batch, refill)] = refill
                    for job, result in zip(chunk, results):
                        if progress is not None:
                            progress(f"{job.application}: {job.label}")
                        yield job, result
        finally:
            # Consumer abandoned the iterator (or a worker raised): drop
            # whatever has not started; running chunks finish and are
            # discarded, the pool itself stays warm for the next run.
            for future in future_to_chunk:
                future.cancel()
