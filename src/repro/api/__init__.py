"""The typed query API: the single request surface over the campaign engine.

Everything that asks this codebase a question -- the CLI, the HTTP service,
the Python facade -- speaks :class:`QueryRequest`/:class:`QueryResponse`
from :mod:`repro.api.query`, answered by :func:`answer_query`
(:mod:`repro.api.answer`) with optional surrogate interpolation
(:mod:`repro.api.surrogate`).

``Query`` is the short public alias of :class:`QueryRequest`, re-exported
at package top level (``repro.Query``).
"""

from repro.api.answer import answer_query, default_run_jobs, exact_answer, surrogate_answer_for
from repro.api.query import (
    ANSWER_METRICS,
    API_VERSION,
    EncodedResult,
    NormalisedQuery,
    PointAnswer,
    Provenance,
    QueryPoint,
    QueryRequest,
    QueryResponse,
    QueryValidationError,
    metrics_from_result,
)
from repro.api.surrogate import AxisBracket, SurrogateAnswer, SurrogateLattice, bracket_axis

#: Short public alias: ``repro.Query(applications="fft", ...)``.
Query = QueryRequest

__all__ = [
    "ANSWER_METRICS",
    "API_VERSION",
    "AxisBracket",
    "EncodedResult",
    "NormalisedQuery",
    "PointAnswer",
    "Provenance",
    "Query",
    "QueryPoint",
    "QueryRequest",
    "QueryResponse",
    "QueryValidationError",
    "SurrogateAnswer",
    "SurrogateLattice",
    "answer_query",
    "bracket_axis",
    "default_run_jobs",
    "exact_answer",
    "metrics_from_result",
    "surrogate_answer_for",
]
