"""The campaign engine: enumerate, (re)use, execute, assemble -- streaming.

:func:`run_campaign` is the one way to run a sweep: the CLI's ``sweep`` and
the benchmark suite run their grids through it.  Its core,
:func:`stream_campaign`, enumerates the sweep as content-addressed jobs,
yields every already persisted result straight from the store (when
resuming), executes the remainder through the chosen executor as a
completion-ordered stream, and commits each fresh result to the store the
moment it arrives -- one ``(job, result)`` pair at a time, never the whole
sweep, so a 100k-point campaign runs in bounded memory and a killed one
loses at most the jobs in flight.

:func:`run_campaign` drains that stream into the
:class:`~repro.core.sweep.SweepResult` the figure and table layer
consumes.  Callers that want bounded memory end to end iterate the stream
themselves and aggregate through a
:class:`~repro.campaign.view.StoreSweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.executors import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import Job, enumerate_jobs
from repro.campaign.store import BaseResultStore, open_store
from repro.config.parameters import ArchitectureConfig
from repro.config.presets import scaled_architecture
from repro.core.results import SimulationResult
from repro.core.sweep import PolicyPoint, SweepResult, default_policy_points
from repro.workloads.suite import WorkloadRequest


@dataclass
class CampaignStats:
    """How a campaign's jobs were satisfied.

    Attributes:
        total: number of jobs in the campaign.
        executed: jobs actually simulated this run.
        reused: jobs satisfied from the result store without simulating.
        duplicates: jobs sharing another job's hash, satisfied by its result.
    """

    total: int
    executed: int
    reused: int
    duplicates: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.total} jobs: {self.executed} simulated, "
            f"{self.reused} reused from store"
        )
        if self.duplicates:
            text += f", {self.duplicates} duplicates"
        return text


def make_executor(
    jobs: int = 1,
) -> Union[SerialExecutor, ParallelExecutor]:
    """The executor for a worker count: serial for 1, a process pool above."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return SerialExecutor() if jobs == 1 else ParallelExecutor(jobs)


class CampaignStream:
    """A lazily executed campaign: iterate to drive it, one result at a time.

    Iterating yields ``(job, result)`` for every *unique* job of the
    campaign -- cached results first (during enumeration), then fresh
    results in completion order, each committed to the store before it is
    yielded.  Nothing is retained between yields, so memory stays bounded
    regardless of grid size; :attr:`stats` is populated once the stream is
    exhausted.

    Attributes:
        jobs: the full job enumeration (including duplicate-hash jobs).
        store: the opened result store, or None.
        stats: the :class:`CampaignStats`, available after exhaustion.
    """

    def __init__(
        self,
        jobs: List[Job],
        executor: Union[SerialExecutor, ParallelExecutor],
        store: Optional[BaseResultStore],
        resume: bool,
        progress: Optional[Callable[[str], None]],
    ) -> None:
        self.jobs = jobs
        self.store = store
        self.stats: Optional[CampaignStats] = None
        self._executor = executor
        self._resume = resume
        self._progress = progress

    def __iter__(self) -> Iterator[Tuple[Job, SimulationResult]]:
        executed = 0
        reused = 0
        duplicates = 0
        pending: List[Job] = []
        seen: set = set()
        try:
            for job in self.jobs:
                key = job.key()
                if key in seen:
                    duplicates += 1  # duplicate request: one simulation serves all
                    continue
                seen.add(key)
                if self._resume and self.store is not None:
                    cached = self.store.get(key)
                    if cached is not None:
                        reused += 1
                        if self._progress is not None:
                            self._progress(f"{job.application}: {job.label} (cached)")
                        yield job, cached
                        continue
                pending.append(job)
            for job, result in self._executor.run(pending, progress=self._progress):
                if self.store is not None:
                    self.store.put(job, result)
                executed += 1
                yield job, result
        finally:
            if self.store is not None:
                self.store.flush()
        self.stats = CampaignStats(
            total=len(self.jobs),
            executed=executed,
            reused=reused,
            duplicates=duplicates,
        )


def stream_campaign(
    requests: Sequence[WorkloadRequest],
    points: Optional[Sequence[PolicyPoint]] = None,
    architecture: Optional[ArchitectureConfig] = None,
    executor: Optional[Union[SerialExecutor, ParallelExecutor]] = None,
    store: Optional[Union[BaseResultStore, str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignStream:
    """Set up a streaming campaign (see :class:`CampaignStream`).

    Args:
        requests: workload recipes, one per application.
        points: sweep points (defaults to the full Table 5.4 grid).
        architecture: chip geometry (defaults to the scaled preset).
        executor: how to run jobs (defaults to a :class:`SerialExecutor`).
        store: result store (or its directory) to persist results into.
        resume: when True and a store is given, skip jobs whose results are
            already persisted.
        progress: optional callback invoked with a message per job.

    Returns:
        The :class:`CampaignStream`; iterate it to execute the campaign.
    """
    arch = architecture if architecture is not None else scaled_architecture()
    grid = list(points) if points is not None else default_policy_points()
    if executor is None:
        executor = SerialExecutor()
    if store is not None and not isinstance(store, BaseResultStore):
        store = open_store(store)
    if store is not None:
        # Fail fast (before any simulation) when the store was written by
        # an environment with the other trace generator; resuming against
        # it could only recompute everything into a mixed store.
        store.check_provenance()

    jobs = enumerate_jobs(requests, grid, arch)
    return CampaignStream(jobs, executor, store, resume, progress)


def assemble_sweep(
    jobs: Sequence[Job],
    points: Sequence[PolicyPoint],
    results: Dict[str, SimulationResult],
) -> SweepResult:
    """Fold per-job results back into the figure layer's ``SweepResult``."""
    sweep = SweepResult(points=list(points))
    for job in jobs:
        result = results[job.key()]
        if job.is_baseline:
            sweep.baselines[job.application] = result
            sweep.results.setdefault(job.application, {})
        else:
            sweep.results.setdefault(job.application, {})[job.point_label] = result
    return sweep


def run_campaign(
    requests: Sequence[WorkloadRequest],
    points: Optional[Sequence[PolicyPoint]] = None,
    architecture: Optional[ArchitectureConfig] = None,
    executor: Optional[Union[SerialExecutor, ParallelExecutor]] = None,
    store: Optional[Union[BaseResultStore, str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[SweepResult, CampaignStats]:
    """Run (or resume) a sweep campaign and materialise the whole sweep.

    A thin wrapper over :func:`stream_campaign` that drains the stream into
    an in-memory :class:`SweepResult` -- the right interface up to a few
    thousand points.  For 100k-point campaigns, iterate the stream and
    aggregate through :class:`~repro.campaign.view.StoreSweep` instead.

    Returns:
        The assembled :class:`SweepResult` and the :class:`CampaignStats`
        recording how many jobs were simulated versus reused.
    """
    grid = list(points) if points is not None else default_policy_points()
    stream = stream_campaign(
        requests,
        points=grid,
        architecture=architecture,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )
    results: Dict[str, SimulationResult] = {}
    for job, result in stream:
        results[job.key()] = result
    sweep = assemble_sweep(stream.jobs, grid, results)
    return sweep, stream.stats
