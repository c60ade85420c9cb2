"""Synchronous query answering: the policy shared by every front end.

Given a normalised query and a result store, each unique job resolves by a
fixed preference order:

1. **store hit** -- the exact result is already memoised; answer instantly.
2. **surrogate** -- the point's retention lies between two grid retentions
   whose exact results are both stored; answer with an ``exact=False``
   interpolation (the async service additionally backfills the exact
   result).
3. **simulate** -- run the job on a campaign executor, commit the result to
   the store, answer exactly.

:func:`answer_query` is the blocking one-shot used by the Python facade
(``repro.answer_query``) and by tests; :mod:`repro.service` wraps the same
building blocks (:func:`exact_answer`, :func:`surrogate_answer_for`,
:func:`attach_normalised`, :func:`grid_aggregates`) in an asyncio core
that adds per-job coalescing, backpressure and asynchronous backfill.

The per-point all-application averages of Table 5.4 (``aggregates``) are
means of the ``normalised`` blocks :func:`attach_normalised` puts on the
answers, taken in the request's application order -- the same ratios and
the same summation order as
:func:`~repro.experiments.runner.point_averages`, which the figure and
report layer uses, so a served aggregate equals a rendered table's value
without re-deriving a single ratio.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.query import (
    EncodedResult,
    NormalisedQuery,
    PointAnswer,
    Provenance,
    QueryPoint,
    QueryRequest,
    QueryResponse,
)
from repro.api.surrogate import SurrogateAnswer, SurrogateLattice
from repro.campaign.jobs import Job
from repro.campaign.store import BaseResultStore
from repro.config.parameters import ArchitectureConfig
from repro.core.results import SimulationResult

#: A runner takes jobs and returns their results, in order.  Injectable so
#: tests (and the service's stats layer) can count simulator invocations
#: exactly; the default builds a serial in-process executor.
RunJobs = Callable[[Sequence[Job]], List[SimulationResult]]

#: The ratios :func:`attach_normalised` puts on an answer, which every grid
#: aggregate averages.
AGGREGATE_METRICS = ("memory", "system", "time")


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
    encoded: EncodedResult,
    source: str,
    store: Optional[BaseResultStore] = None,
) -> PointAnswer:
    """An ``exact=True`` answer from an encoded simulator result (store or
    fresh); the answer gets its own copies of the metrics and payload."""
    return PointAnswer(
        application=query_point.application,
        label=query_point.label,
        retention_us=query_point.retention_us,
        exact=True,
        metrics=dict(encoded.metrics),
        provenance=Provenance(
            job_key=query_point.key,
            source=source,
            **store_provenance_fields(store),
        ),
        result=encoded.payload_copy(),
        encoded=encoded,
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
    answers_by_key: Dict[str, PointAnswer],
) -> Optional[Dict[str, Dict[str, float]]]:
    """Per-point-label averages across applications (the Table 5.4 view).

    Each aggregate averages the answers' ``normalised`` blocks over
    ``request.applications``.  A cell's answer is looked up by its query
    point's job key, so two labels that normalise to one job both get their
    cell; the first point of an (application, label) cell wins, as in
    :class:`~repro.campaign.view.StoreSweep`.  Aggregates are served only
    when every answer is exact, baselines were included and a store is
    attached; otherwise (surrogates present, storeless service, baselines
    excluded) returns None instead of an average that mixes approximations
    into a table masquerading as measurement.
    """
    if store is None or not normalised.request.include_baseline:
        return None
    if not normalised.policy_points or not all(
        answers_by_key[query_point.key].exact for query_point in normalised.points
    ):
        return None
    cells: Dict[Tuple[str, str], Dict[str, float]] = {}
    for query_point in normalised.points:
        if not query_point.is_baseline:
            cells.setdefault(
                (query_point.application, query_point.label),
                answers_by_key[query_point.key].normalised,
            )
    applications = normalised.request.applications
    return {
        point.label: {
            name: sum(cells[app, point.label][name] for app in applications)
            / len(applications)
            for name in AGGREGATE_METRICS
        }
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
    misses: List[QueryPoint] = []
    for query_point in unique_points:
        result = store.get(query_point.key) if store is not None else None
        if result is not None:
            answers_by_key[query_point.key] = exact_answer(
                query_point, EncodedResult.of(result), source="store", store=store
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
            answers_by_key[query_point.key] = exact_answer(
                query_point, EncodedResult.of(result), source="simulated",
                store=store,
            )
        if store is not None:
            store.flush()

    attach_normalised(normalised, answers_by_key)
    return QueryResponse(
        request=request,
        answers=[
            answers_by_key[query_point.key] for query_point in unique_points
        ],
        aggregates=grid_aggregates(normalised, store, answers_by_key),
    )
