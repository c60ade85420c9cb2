"""Served-answer invariants: nothing leaves the service unchecked.

The per-run invariant engine (:mod:`repro.validate.invariants`) refutes bad
*simulations*; this module refutes bad *answers* -- the things the service
layer itself could get wrong while assembling a response:

- **flag/source consistency**: ``exact=True`` answers must come from the
  store or a fresh simulation, ``exact=False`` answers must be surrogates
  with non-empty interpolation bounds and corner keys.  An approximation
  can never masquerade as ground truth past this check.
- **exact answers satisfy the run invariants**: the full result payload of
  every exact answer is rebuilt and passed through
  :func:`~repro.validate.invariants.check_result` under the configuration
  the query normalised to (the served payload is what clients will trust,
  so it is what gets validated).
- **surrogate convexity**: interpolated metrics are convex combinations of
  their corners, so each must lie within the corner envelope (min/max of
  the corner values, with float tolerance); the corners are re-read from
  the store by the hashes stamped into the answer's provenance.
- **aggregates are means**: each served per-label aggregate (the Table 5.4
  grid view) must equal, per metric, the mean of that label's
  ``normalised`` answers over the query's applications, every one of
  which must be exact.

:func:`check_response` returns human-readable violation strings (empty ==
clean); the service counts them in ``ServiceStats.validation_failures`` and
``repro.cli serve --validate-answers`` turns the check on in production.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.answer import AGGREGATE_METRICS
from repro.api.query import (
    ANSWER_METRICS,
    EXACT_SOURCES,
    NormalisedQuery,
    PointAnswer,
    QueryResponse,
    metrics_from_result,
)
from repro.campaign.store import BaseResultStore
from repro.core.results import SimulationResult
from repro.validate.invariants import check_result

#: Relative tolerance of the surrogate envelope and aggregate checks
#: (float summation).
ENVELOPE_RTOL = 1e-9


def _check_flags(answer: PointAnswer, where: str, violations: List[str]) -> None:
    source = answer.provenance.source
    if answer.exact:
        if source not in EXACT_SOURCES:
            violations.append(
                f"{where}: exact answer has non-exact source {source!r}"
            )
        if answer.bounds is not None:
            violations.append(f"{where}: exact answer carries interpolation bounds")
        if answer.result is None:
            violations.append(f"{where}: exact answer carries no result payload")
    else:
        if source != "surrogate":
            violations.append(
                f"{where}: inexact answer has source {source!r}, not 'surrogate'"
            )
        if not answer.bounds:
            violations.append(f"{where}: surrogate answer has no bounds")
        if not answer.provenance.corner_keys:
            violations.append(f"{where}: surrogate answer names no corner results")


def _check_exact_invariants(
    answer: PointAnswer, config, where: str, violations: List[str]
) -> None:
    try:
        result = SimulationResult.from_dict(answer.result)
    except Exception as exc:
        violations.append(f"{where}: result payload does not restore: {exc}")
        return
    serve_metrics = metrics_from_result(result)
    for name in ANSWER_METRICS:
        if answer.metrics.get(name) != serve_metrics[name]:
            violations.append(
                f"{where}: served metric {name} ({answer.metrics.get(name)!r}) "
                f"disagrees with the result payload ({serve_metrics[name]!r})"
            )
    validation = check_result(result, config=config)
    for check in validation.violations:
        violations.append(f"{where}: invariant {check.name}: {check.detail}")


def _check_surrogate_envelope(
    answer: PointAnswer,
    store: Optional[BaseResultStore],
    where: str,
    violations: List[str],
) -> None:
    if store is None or not answer.provenance.corner_keys:
        return  # no corners to check against (already flagged by _check_flags)
    corners: List[Dict[str, float]] = []
    for key in answer.provenance.corner_keys:
        result = store.get(key)
        if result is None:
            violations.append(f"{where}: surrogate corner {key[:16]} not in store")
            return
        corners.append(metrics_from_result(result))
    for name in ANSWER_METRICS:
        values = [corner[name] for corner in corners]
        lo, hi = min(values), max(values)
        slack = ENVELOPE_RTOL * max(abs(lo), abs(hi), 1.0)
        served = answer.metrics.get(name)
        if served is None or served < lo - slack or served > hi + slack:
            violations.append(
                f"{where}: surrogate metric {name} = {served!r} outside its "
                f"corner envelope [{lo!r}, {hi!r}]"
            )


def _check_aggregates(response: QueryResponse, violations: List[str]) -> None:
    if not response.aggregates:
        return
    by_cell: Dict[Tuple[str, str], PointAnswer] = {}
    for answer in response.answers:
        by_cell.setdefault((answer.application, answer.label), answer)
    applications = response.request.applications
    for label, served in response.aggregates.items():
        answers = [by_cell.get((name, label)) for name in applications]
        if not all(
            answer is not None
            and answer.exact
            and set(AGGREGATE_METRICS) <= set(answer.normalised or ())
            for answer in answers
        ):
            violations.append(
                f"aggregate {label}: not every application has an exact, "
                f"normalised answer to average"
            )
            continue
        for name in AGGREGATE_METRICS:
            mean = sum(answer.normalised[name] for answer in answers) / len(answers)
            value = served.get(name)
            slack = ENVELOPE_RTOL * max(abs(mean), 1.0)
            if value is None or abs(value - mean) > slack:
                violations.append(
                    f"aggregate {label}: {name} = {value!r} is not the mean "
                    f"{mean!r} of the applications' normalised values"
                )


def check_response(
    response: QueryResponse,
    normalised: Optional[NormalisedQuery] = None,
    store: Optional[BaseResultStore] = None,
) -> List[str]:
    """Validate a served response; returns violation strings (empty == ok).

    Args:
        response: the response about to be served.
        normalised: the normalisation the service answered from; supplies
            the per-point configurations for the run-invariant engine
            (recomputed from the request when omitted).
        store: the store surrogate corners are re-read from (skips the
            envelope check when None).
    """
    if normalised is None:
        normalised = response.request.normalise()
    configs_by_key = {point.key: point.job.config for point in normalised.points}
    violations: List[str] = []
    for answer in response.answers:
        where = f"{answer.application}/{answer.label}"
        _check_flags(answer, where, violations)
        key = answer.provenance.job_key
        if key not in configs_by_key:
            violations.append(
                f"{where}: answer's job hash is not one the query normalises to"
            )
            continue
        if answer.exact and answer.result is not None:
            _check_exact_invariants(
                answer, configs_by_key[key], where, violations
            )
        elif not answer.exact:
            _check_surrogate_envelope(answer, store, where, violations)
    _check_aggregates(response, violations)
    return violations
