"""Synchronous query answering: the policy shared by every front end.

Given a normalised query and a result store, each unique job resolves by a
fixed preference order:

1. **store hit** -- the exact result is already memoised; answer instantly.
2. **surrogate** -- the point is off the lattice grid but inside its hull
   with every corner stored; answer with an ``exact=False`` interpolation
   (the async service additionally backfills the exact result).
3. **simulate** -- run the job on a campaign executor, commit the result to
   the store, answer exactly.

:func:`answer_query` is the blocking one-shot used by the Python facade
(``repro.answer_query``) and by tests; :mod:`repro.service` wraps the same
building blocks (:func:`exact_answer`, :func:`surrogate_answer_for`,
:func:`response_for`) in an asyncio core that adds per-job coalescing,
backpressure and asynchronous backfill.

Aggregation of exact grid answers (the per-point all-application averages
of Table 5.4) is delegated to
:func:`~repro.experiments.runner.point_averages` -- the same code path the
figure/report layer uses, so a served aggregate can never disagree with a
rendered table.  It averages an in-memory
:class:`~repro.core.sweep.SweepResult` of the results the query was
answered from, rather than reading them from the store a second time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.api.query import (
    NormalisedQuery,
    PointAnswer,
    Provenance,
    QueryPoint,
    QueryRequest,
    QueryResponse,
    metrics_from_result,
)
from repro.api.surrogate import SurrogateAnswer, SurrogateLattice
from repro.campaign.jobs import Job
from repro.campaign.store import BaseResultStore
from repro.config.parameters import ArchitectureConfig
from repro.core.results import SimulationResult
from repro.core.sweep import SweepResult

#: A runner takes jobs and returns their results, in order.  Injectable so
#: tests (and the service's stats layer) can count simulator invocations
#: exactly; the default builds a serial in-process executor.
RunJobs = Callable[[Sequence[Job]], List[SimulationResult]]


def default_run_jobs(jobs: Sequence[Job]) -> List[SimulationResult]:
    """Run jobs on a serial in-process executor, preserving order."""
    from repro.campaign.executors import SerialExecutor

    results_by_key: Dict[str, SimulationResult] = {}
    for job, result in SerialExecutor().run(jobs):
        results_by_key[job.key()] = result
    return [results_by_key[job.key()] for job in jobs]


def store_provenance_fields(
    store: Optional[BaseResultStore],
) -> Dict[str, Optional[str]]:
    """The store identity stamped into every answer's provenance."""
    if store is None:
        return {"store_backend": None, "store_root": None}
    return {"store_backend": store.backend_name, "store_root": str(store.root)}


def exact_answer(
    query_point: QueryPoint,
    result: SimulationResult,
    source: str,
    store: Optional[BaseResultStore] = None,
) -> PointAnswer:
    """An ``exact=True`` answer from a simulator result (store or fresh)."""
    return PointAnswer(
        application=query_point.application,
        label=query_point.label,
        retention_us=query_point.retention_us,
        exact=True,
        metrics=metrics_from_result(result),
        provenance=Provenance(
            job_key=query_point.key,
            source=source,
            **store_provenance_fields(store),
        ),
        result=result.to_dict(),
    )


def surrogate_answer_for(
    query_point: QueryPoint,
    surrogate: SurrogateAnswer,
    store: Optional[BaseResultStore] = None,
) -> PointAnswer:
    """An ``exact=False`` answer from a lattice interpolation."""
    return PointAnswer(
        application=query_point.application,
        label=query_point.label,
        retention_us=query_point.retention_us,
        exact=False,
        metrics=dict(surrogate.metrics),
        bounds={name: list(interval) for name, interval in surrogate.bounds.items()},
        provenance=Provenance(
            job_key=query_point.key,
            source="surrogate",
            corner_keys=surrogate.corner_keys,
            **store_provenance_fields(store),
        ),
    )


def attach_normalised(
    normalised: NormalisedQuery, answers_by_key: Dict[str, PointAnswer]
) -> None:
    """Fill each non-baseline answer's paper metrics (relative to SRAM).

    Normalisation needs the application's exact baseline from the same
    query; answers (exact or surrogate) of applications whose baseline was
    not requested, or whose baseline answer is missing, are left without a
    ``normalised`` block rather than silently normalised against nothing.
    """
    baseline_metrics: Dict[str, Dict[str, float]] = {}
    for query_point in normalised.points:
        if not query_point.is_baseline:
            continue
        answer = answers_by_key.get(query_point.key)
        if answer is not None and answer.exact:
            baseline_metrics[query_point.application] = answer.metrics
    for query_point in normalised.points:
        if query_point.is_baseline:
            continue
        answer = answers_by_key.get(query_point.key)
        baseline = baseline_metrics.get(query_point.application)
        if answer is None or baseline is None:
            continue
        answer.normalised = {
            "memory": answer.metrics["memory_energy_j"]
            / baseline["memory_energy_j"],
            "system": answer.metrics["system_energy_j"]
            / baseline["system_energy_j"],
            "time": answer.metrics["execution_cycles"]
            / baseline["execution_cycles"],
        }


def grid_aggregates(
    normalised: NormalisedQuery,
    store: Optional[BaseResultStore],
    results_by_key: Dict[str, SimulationResult],
) -> Optional[Dict[str, Dict[str, float]]]:
    """Per-point-label averages across applications (the Table 5.4 view).

    ``results_by_key`` holds the exact results the query was answered
    from.  Aggregates are served only when every point has one (no
    surrogate among the answers), baselines were included and a store is
    attached.  The results then fill an in-memory :class:`SweepResult`,
    the first key of each (application, label) cell winning as in
    :class:`~repro.campaign.view.StoreSweep`, and :func:`point_averages`
    -- the exact code path the figure layer uses -- averages it.
    Otherwise (surrogates present, storeless service, baselines excluded)
    returns None instead of an average that mixes approximations into a
    table masquerading as measurement.
    """
    if store is None or not normalised.request.include_baseline:
        return None
    if not normalised.policy_points or any(
        query_point.key not in results_by_key for query_point in normalised.points
    ):
        return None
    from repro.experiments.runner import point_averages

    sweep = SweepResult(points=list(normalised.policy_points))
    for query_point in normalised.points:
        result = results_by_key[query_point.key]
        if query_point.is_baseline:
            sweep.baselines.setdefault(query_point.application, result)
        else:
            sweep.results.setdefault(query_point.application, {}).setdefault(
                query_point.label, result
            )
    applications = list(normalised.request.applications)
    return {
        point.label: point_averages(sweep, point, applications)
        for point in normalised.policy_points
    }


def answer_query(
    request: QueryRequest,
    store: Optional[BaseResultStore] = None,
    architecture: Optional[ArchitectureConfig] = None,
    run_jobs: Optional[RunJobs] = None,
    lattice: Optional[SurrogateLattice] = None,
) -> QueryResponse:
    """Answer a query synchronously: store hits, then surrogates, then runs.

    Args:
        request: the validated query.
        store: result store consulted first and extended with every fresh
            result (None runs everything in-process, storeless).
        architecture: machine model to normalise against (default: the
            scaled preset shared with the CLI and campaigns).
        run_jobs: execution seam, default a serial in-process executor.
        lattice: surrogate interpolator; only consulted when the request
            sets ``allow_surrogate`` (no backfill here -- the async service
            layers that on top).
    """
    normalised = request.normalise(architecture)
    unique_points = normalised.unique_points()
    runner = run_jobs if run_jobs is not None else default_run_jobs

    answers_by_key: Dict[str, PointAnswer] = {}
    results_by_key: Dict[str, SimulationResult] = {}
    misses: List[QueryPoint] = []
    for query_point in unique_points:
        result = store.get(query_point.key) if store is not None else None
        if result is not None:
            results_by_key[query_point.key] = result
            answers_by_key[query_point.key] = exact_answer(
                query_point, result, source="store", store=store
            )
            continue
        if request.allow_surrogate and lattice is not None:
            surrogate = lattice.interpolate(query_point)
            if surrogate is not None:
                answers_by_key[query_point.key] = surrogate_answer_for(
                    query_point, surrogate, store=store
                )
                continue
        misses.append(query_point)

    if misses:
        results = runner([query_point.job for query_point in misses])
        for query_point, result in zip(misses, results):
            if store is not None:
                store.put(query_point.job, result)
            results_by_key[query_point.key] = result
            answers_by_key[query_point.key] = exact_answer(
                query_point, result, source="simulated", store=store
            )
        if store is not None:
            store.flush()

    attach_normalised(normalised, answers_by_key)
    return QueryResponse(
        request=request,
        answers=[
            answers_by_key[query_point.key] for query_point in unique_points
        ],
        aggregates=grid_aggregates(normalised, store, results_by_key),
    )
