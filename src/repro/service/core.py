"""The async sweep service: memoised, coalesced, surrogate-backed answers.

:class:`SweepService` is the event-loop half of sweep-as-a-service.  Each
query is classified **synchronously on the loop** (no await between looking
a job up and claiming it) into four buckets per unique job hash:

- **store hit** -- answered immediately from the result store.
- **coalesced** -- an identical job is already in flight (owned by another
  query, or by a surrogate backfill); this query just awaits its future.
  One simulation, N waiters: the memoisation story under concurrency.
- **surrogate** -- off-grid but interpolable; answered ``exact=False`` now,
  and the exact job is scheduled as an asynchronous *backfill* that commits
  to the store (so the next identical query is a store hit).
- **owned** -- a genuine cold miss this query claims: its future is
  registered in the in-flight map *before* the first await, then the whole
  owned set runs as one batch on the campaign executor in a worker thread,
  gated by a semaphore (backpressure: at most ``max_concurrent_batches``
  simulator batches, everything else queues on the loop, where waiting is
  free).

Every counter in :class:`ServiceStats` is exact -- queries, store hits,
jobs executed, coalesced waits, surrogates, backfills -- because exact
counts, not timing, are this repo's test and CI currency.

What a stored answer is made of is derived once per service, not once per
query, in two bounded LRUs touched only on the event-loop thread: each
distinct request's normalisation and unique points
(:data:`NORMALISED_QUERY_POINTS`), and each stored key's
:class:`~repro.api.query.EncodedResult` -- metrics, ``to_dict`` payload and
its JSON text, made from the store's read of the record
(:data:`ENCODED_RESULT_ENTRIES`).  Every answer gets its own copies, and a
key the service puts is evicted, so the next answer for it is the bytes a
fresh service would serve.  A job's result is a pure function of its
content hash, so a kept encoding never goes stale.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.api.answer import (
    RunJobs,
    attach_normalised,
    default_run_jobs,
    exact_answer,
    grid_aggregates,
    surrogate_answer_for,
)
from repro.api.query import (
    EncodedResult,
    NormalisedQuery,
    PointAnswer,
    QueryPoint,
    QueryRequest,
    QueryResponse,
)
from repro.api.surrogate import SurrogateLattice
from repro.campaign.store import BaseResultStore
from repro.config.parameters import ArchitectureConfig
from repro.config.presets import scaled_architecture
from repro.core.results import SimulationResult

#: Default bound on simulator batches running concurrently in worker
#: threads; everything beyond it waits on the loop (where waiting is free).
DEFAULT_MAX_CONCURRENT_BATCHES = 2

#: Query points (one per application and cell, ~4 KiB each with its job)
#: that the normalisations a service keeps may hold together; the least
#: recently used request goes first.  The distinct queries of a
#: ``serve-mixed`` benchmark run (126 point queries, 3 one-application
#: grids, 32 what-ifs) hold 445.
NORMALISED_QUERY_POINTS = 2048

#: Stored results whose :class:`EncodedResult` a service keeps, least
#: recently used first.  An entry is ~4 KiB at the scaled geometry, and
#: 256 of them cover every point of a served three-application grid at
#: three retentions (129 keys).
ENCODED_RESULT_ENTRIES = 256


@dataclass
class ServiceStats:
    """Exact counters of everything the service did.

    Attributes:
        queries: queries answered (one per :meth:`SweepService.answer`).
        store_hits: unique query points answered straight from the store.
        jobs_executed: simulations actually run (owned misses + backfills).
        batches_executed: executor batches those runs were grouped into.
        coalesced: query points that waited on an identical in-flight job
            instead of running their own.
        surrogate_answers: points answered by interpolation (exact=False).
        backfills_scheduled / backfills_completed: exact jobs queued /
            finished behind surrogate answers.
        validation_failures: served answers that failed the invariant check
            (only counted when the service validates answers).
        errors: queries that raised instead of answering.
    """

    queries: int = 0
    store_hits: int = 0
    jobs_executed: int = 0
    batches_executed: int = 0
    coalesced: int = 0
    surrogate_answers: int = 0
    backfills_scheduled: int = 0
    backfills_completed: int = 0
    validation_failures: int = 0
    errors: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON form (served at ``/v1/stats``)."""
        return {
            "queries": self.queries,
            "store_hits": self.store_hits,
            "jobs_executed": self.jobs_executed,
            "batches_executed": self.batches_executed,
            "coalesced": self.coalesced,
            "surrogate_answers": self.surrogate_answers,
            "backfills_scheduled": self.backfills_scheduled,
            "backfills_completed": self.backfills_completed,
            "validation_failures": self.validation_failures,
            "errors": self.errors,
        }


class SweepService:
    """Answers :class:`QueryRequest` objects on an asyncio event loop.

    Args:
        store: result store for memoisation and backfill (None serves
            storeless: every miss simulates, nothing is remembered).
        architecture: machine model queries normalise against.
        run_jobs: execution seam (default: serial in-process executor);
            called in a worker thread, must be thread-compatible.
        lattice: surrogate interpolator (None disables surrogates; built
            automatically from the store by :func:`make_service`).
        max_concurrent_batches: backpressure bound on simulator batches.
        validate_answers: run the served-answer invariant check
            (:mod:`repro.validate.service`) on every response, counting
            failures in :attr:`ServiceStats.validation_failures`.
    """

    def __init__(
        self,
        store: Optional[BaseResultStore] = None,
        architecture: Optional[ArchitectureConfig] = None,
        run_jobs: Optional[RunJobs] = None,
        lattice: Optional[SurrogateLattice] = None,
        max_concurrent_batches: int = DEFAULT_MAX_CONCURRENT_BATCHES,
        validate_answers: bool = False,
    ) -> None:
        self.store = store
        self.architecture = (
            architecture if architecture is not None else scaled_architecture()
        )
        self.run_jobs = run_jobs if run_jobs is not None else default_run_jobs
        self.lattice = lattice
        self.validate_answers = validate_answers
        self.stats = ServiceStats()
        self._inflight: Dict[str, "asyncio.Future[SimulationResult]"] = {}
        self._batch_semaphore = asyncio.Semaphore(max(1, max_concurrent_batches))
        self._backfill_tasks: Set["asyncio.Task"] = set()
        # Both LRUs are touched only on the event-loop thread.
        self._normalised: "OrderedDict[str, Tuple[NormalisedQuery, List[QueryPoint]]]" = (
            OrderedDict()
        )
        self._normalised_points = 0
        self._encoded: "OrderedDict[str, EncodedResult]" = OrderedDict()

    # -- the query path -----------------------------------------------------------

    async def answer(self, request: QueryRequest) -> QueryResponse:
        """Answer one query; safe to call from any number of tasks."""
        self.stats.queries += 1
        try:
            return await self._answer(request)
        except Exception:
            self.stats.errors += 1
            raise

    async def _answer(self, request: QueryRequest) -> QueryResponse:
        loop = asyncio.get_running_loop()
        normalised, unique_points = self._normalise(request)

        answers_by_key: Dict[str, PointAnswer] = {}
        owned: List[QueryPoint] = []
        waiting: List[Tuple[QueryPoint, "asyncio.Future[SimulationResult]"]] = []

        # Classification is synchronous: between the store probe and the
        # in-flight claim there is no await, so two tasks can never both
        # claim (or both miss) the same job hash.
        for query_point in unique_points:
            key = query_point.key
            encoded = self._stored(key)
            if encoded is not None:
                self.stats.store_hits += 1
                answers_by_key[key] = exact_answer(
                    query_point, encoded, source="store", store=self.store
                )
                continue
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.stats.coalesced += 1
                waiting.append((query_point, inflight))
                continue
            if request.allow_surrogate and self.lattice is not None:
                surrogate = self.lattice.interpolate(query_point)
                if surrogate is not None:
                    self.stats.surrogate_answers += 1
                    answers_by_key[key] = surrogate_answer_for(
                        query_point, surrogate, store=self.store
                    )
                    self._schedule_backfill(query_point)
                    continue
            future: "asyncio.Future[SimulationResult]" = loop.create_future()
            future.add_done_callback(_retrieve_exception)
            self._inflight[key] = future
            owned.append(query_point)

        if owned:
            results = await self._run_owned(owned)
            for query_point in owned:
                answers_by_key[query_point.key] = exact_answer(
                    query_point,
                    EncodedResult.of(results[query_point.key]),
                    source="simulated",
                    store=self.store,
                )
        for query_point, future in waiting:
            result = await future
            answers_by_key[query_point.key] = exact_answer(
                query_point,
                EncodedResult.of(result),
                source="simulated",
                store=self.store,
            )

        attach_normalised(normalised, answers_by_key)
        response = QueryResponse(
            request=request,
            answers=[answers_by_key[point.key] for point in unique_points],
            aggregates=grid_aggregates(normalised, self.store, answers_by_key),
        )
        if self.validate_answers:
            from repro.validate.service import check_response

            violations = check_response(response, normalised, store=self.store)
            if violations:
                self.stats.validation_failures += len(violations)
        return response

    def _normalise(
        self, request: QueryRequest
    ) -> Tuple[NormalisedQuery, List[QueryPoint]]:
        """The request's normalisation and unique points, derived once per
        distinct request.

        Keyed on the request's repr, not the request: ``32 == 32.0``, so a
        ``WB(32.0,32)`` request equals and hashes like ``WB(32,32)``, yet
        normalises to other jobs.  A dataclass repr names every field with
        its type-faithful repr (the job-digest memo of
        :mod:`repro.campaign.jobs` rests on the same property).
        """
        memo_key = repr(request)
        entry = self._normalised.get(memo_key)
        if entry is not None:
            self._normalised.move_to_end(memo_key)
            return entry
        normalised = request.normalise(self.architecture)
        entry = (normalised, normalised.unique_points())
        self._normalised[memo_key] = entry
        self._normalised_points += len(normalised.points)
        while self._normalised_points > NORMALISED_QUERY_POINTS:
            _, (evicted, _) = self._normalised.popitem(last=False)
            self._normalised_points -= len(evicted.points)
        return entry

    def _stored(self, key: str) -> Optional[EncodedResult]:
        """The encoded stored result of ``key``, or None on a store miss.

        The encoding is made from the store's read of the record, never
        from a fresh result: a stored result's counters come back in key
        order, a fresh one's in insertion order, so only the read gives the
        bytes every later answer serves.  Misses are not remembered.
        """
        encoded = self._encoded.get(key)
        if encoded is not None:
            self._encoded.move_to_end(key)
            return encoded
        result = self.store.get(key) if self.store is not None else None
        if result is None:
            return None
        encoded = self._encoded[key] = EncodedResult.of(result)
        if len(self._encoded) > ENCODED_RESULT_ENTRIES:
            self._encoded.popitem(last=False)
        return encoded

    # -- execution ----------------------------------------------------------------

    async def _run_owned(
        self, owned: List[QueryPoint]
    ) -> Dict[str, SimulationResult]:
        """Run this query's claimed misses as one batch; resolve their futures."""
        try:
            results = await self._execute([point.job for point in owned])
        except BaseException as exc:
            for query_point in owned:
                future = self._inflight.pop(query_point.key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
            raise
        by_key: Dict[str, SimulationResult] = {}
        for query_point, result in zip(owned, results):
            by_key[query_point.key] = result
            future = self._inflight.pop(query_point.key, None)
            if future is not None and not future.done():
                future.set_result(result)
        return by_key

    async def _execute(self, jobs) -> List[SimulationResult]:
        """One executor batch in a worker thread, semaphore-bounded, with
        every result committed to the store before anyone observes it."""
        async with self._batch_semaphore:
            results = await asyncio.to_thread(self.run_jobs, jobs)
        self.stats.jobs_executed += len(jobs)
        self.stats.batches_executed += 1
        if self.store is not None:
            for job, result in zip(jobs, results):
                self.store.put(job, result)
                # The next answer for the key encodes the store's read.
                self._encoded.pop(job.key(), None)
            self.store.flush()
        return results

    # -- surrogate backfill -------------------------------------------------------

    def _schedule_backfill(self, query_point: QueryPoint) -> None:
        """Queue the exact job behind a surrogate answer.

        The backfill registers in the same in-flight map as owned jobs, so
        a concurrent identical query coalesces onto it (and gets the exact
        answer) instead of starting a duplicate simulation.
        """
        if self.store is None or query_point.key in self._inflight:
            return
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SimulationResult]" = loop.create_future()
        future.add_done_callback(_retrieve_exception)
        self._inflight[query_point.key] = future
        self.stats.backfills_scheduled += 1
        task = loop.create_task(self._backfill(query_point, future))
        self._backfill_tasks.add(task)
        task.add_done_callback(self._backfill_tasks.discard)

    async def _backfill(
        self,
        query_point: QueryPoint,
        future: "asyncio.Future[SimulationResult]",
    ) -> None:
        try:
            results = await self._execute([query_point.job])
        except BaseException as exc:
            self._inflight.pop(query_point.key, None)
            if not future.done():
                future.set_exception(exc)
            return
        self._inflight.pop(query_point.key, None)
        if not future.done():
            future.set_result(results[0])
        self.stats.backfills_completed += 1

    async def drain_backfills(self) -> None:
        """Wait for every scheduled backfill to finish (tests, shutdown)."""
        while self._backfill_tasks:
            await asyncio.gather(*list(self._backfill_tasks), return_exceptions=True)


def _retrieve_exception(future: "asyncio.Future") -> None:
    # Mark a failed shared future's exception as retrieved even when no
    # waiter ever awaited it (e.g. a backfill with no coalesced queries),
    # so the loop does not log "exception was never retrieved".
    if not future.cancelled():
        future.exception()


def make_service(
    store: Optional[BaseResultStore] = None,
    architecture: Optional[ArchitectureConfig] = None,
    run_jobs: Optional[RunJobs] = None,
    surrogate_retentions: Optional[Tuple[float, ...]] = None,
    max_concurrent_batches: int = DEFAULT_MAX_CONCURRENT_BATCHES,
    validate_answers: bool = False,
) -> SweepService:
    """Build a service with a store-backed surrogate lattice when possible.

    ``surrogate_retentions`` pins the lattice grid (default: the Table 5.4
    retention times); pass an empty tuple to disable surrogates entirely.
    """
    architecture = architecture if architecture is not None else scaled_architecture()
    lattice: Optional[SurrogateLattice] = None
    if store is not None and (
        surrogate_retentions is None or len(surrogate_retentions) >= 2
    ):
        kwargs = {}
        if surrogate_retentions is not None:
            kwargs["retentions_us"] = surrogate_retentions
        lattice = SurrogateLattice(store, architecture=architecture, **kwargs)
    return SweepService(
        store=store,
        architecture=architecture,
        run_jobs=run_jobs,
        lattice=lattice,
        max_concurrent_batches=max_concurrent_batches,
        validate_answers=validate_answers,
    )
