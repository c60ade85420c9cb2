"""The ``serve-mixed`` load: an open-loop query schedule and its client.

The schedule is a pure function of the seed: a fixed class composition
(~80% point, ~17% grid, ~2.6% what-if queries) shuffled by the seed, with
arrival times drawn as a Poisson process conditioned on the query count,
i.e. sorted uniform times over the run.  Each what-if asks for a distinct
off-grid retention inside the surrogate lattice's hull, so each is answered
``exact=false`` and backfilled by exactly one simulation.

:func:`run_open_loop` sends the schedule regardless of how the service
keeps up, with at most ``connections`` requests in flight, and times every
query from when it was due.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The store the service answers from: the ``sweep-short`` grid.
APPLICATIONS = ("fft", "barnes", "blackscholes")
RETENTIONS_US = (50.0, 100.0, 200.0)
TIMINGS = ("periodic", "refrint")
DATA_POLICIES = ("all", "valid", "dirty", "WB(4,4)", "WB(8,8)", "WB(16,16)", "WB(32,32)")
LENGTH_SCALE = 0.05

#: Offered load, queries per second.
RATE_PER_S = 36.0
#: Shares of the fixed class composition (grids take the remainder).
POINT_SHARE = 0.8
WHATIF_SHARE = 0.0256

#: Answers per response: the SRAM baseline plus the asked points.
POINT_ANSWERS = 2
GRID_ANSWERS = 1 + len(RETENTIONS_US) * len(TIMINGS) * len(DATA_POLICIES)


@dataclass(frozen=True)
class Query:
    """One scheduled query: ``due`` is seconds after the load starts."""

    index: int
    kind: str
    due: float
    body: bytes


@dataclass
class Outcome:
    """What happened to one query (monotonic times, seconds)."""

    kind: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes


def class_counts(total: int) -> Dict[str, int]:
    """The fixed composition of ``total`` queries."""
    whatif = max(1, round(total * WHATIF_SHARE))
    point = round(total * POINT_SHARE)
    return {"point": point, "grid": total - point - whatif, "whatif": whatif}


def _query(applications, retentions, timings, datas) -> bytes:
    return json.dumps(
        {
            "applications": list(applications),
            "retentions_us": list(retentions),
            "timing_policies": list(timings),
            "data_policies": list(datas),
            "length_scale": LENGTH_SCALE,
        }
    ).encode("utf-8")


def make_schedule(seed: int, seconds: float, rate: float = RATE_PER_S) -> List[Query]:
    """The seeded open-loop schedule of one run."""
    rng = random.Random(seed)
    total = max(3, round(rate * seconds))
    kinds = [kind for kind, count in class_counts(total).items() for _ in range(count)]
    rng.shuffle(kinds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in kinds)
    whatif_retentions: List[float] = []
    while len(whatif_retentions) < kinds.count("whatif"):
        retention = round(rng.uniform(RETENTIONS_US[0], RETENTIONS_US[-1]), 2)
        if retention not in RETENTIONS_US and retention not in whatif_retentions:
            whatif_retentions.append(retention)
    queries = []
    for index, (kind, due) in enumerate(zip(kinds, dues)):
        application = rng.choice(APPLICATIONS)
        if kind == "grid":
            body = _query([application], RETENTIONS_US, TIMINGS, DATA_POLICIES)
        else:
            retention = (
                whatif_retentions.pop() if kind == "whatif" else rng.choice(RETENTIONS_US)
            )
            body = _query(
                [application], [retention], [rng.choice(TIMINGS)],
                [rng.choice(DATA_POLICIES)],
            )
        queries.append(Query(index=index, kind=kind, due=due, body=body))
    return queries


def request(
    port: int, method: str, path: str, body: Optional[bytes] = None,
    timeout: float = 60.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange on a fresh connection; ``(status, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(port: int, path: str) -> dict:
    """GET a JSON endpoint of the service."""
    status, body = request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return json.loads(body)


def run_open_loop(
    port: int, queries: List[Query], connections: int = 2, lead_s: float = 0.05
) -> Tuple[float, List[Outcome]]:
    """Send the schedule; returns the load's start time and every outcome.

    Each connection slot takes the next query in schedule order, waits for
    its due time (if still ahead) and sends it, so a slow answer makes the
    queries behind it late instead of thinning the load.
    """
    start = time.monotonic() + lead_s
    outcomes: List[Optional[Outcome]] = [None] * len(queries)
    cursor = iter(queries)
    lock = threading.Lock()

    def slot() -> None:
        while True:
            with lock:
                query = next(cursor, None)
            if query is None:
                return
            due = start + query.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status, body = request(
                    port, "POST", f"/v1/query?rid={query.index}", query.body
                )
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            outcomes[query.index] = Outcome(
                kind=query.kind, due=due, sent=sent, done=time.monotonic(),
                status=status, body=body,
            )

    threads = [threading.Thread(target=slot) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, outcomes


def answer_problem(kind: str, status: int, response: Optional[dict]) -> Optional[str]:
    """Why a response does not fit its query class (None when it does).

    Point and grid queries hit stored points: exact, sourced from the
    store, grids with aggregates.  A what-if is an interpolation: its
    point answer is ``exact=false`` from the surrogate, with bounds.
    """
    if status != 200 or response is None:
        return f"HTTP {status}"
    answers = response.get("answers", [])
    if kind in ("point", "grid"):
        wanted = POINT_ANSWERS if kind == "point" else GRID_ANSWERS
        if len(answers) != wanted:
            return f"{len(answers)} answers, wanted {wanted}"
        if not response.get("exact"):
            return "stored point answered inexactly"
        if any(answer["provenance"]["source"] != "store" for answer in answers):
            return "stored point not answered from the store"
        if kind == "grid" and not response.get("aggregates"):
            return "grid answered without aggregates"
        return None
    if len(answers) != POINT_ANSWERS:
        return f"{len(answers)} answers, wanted {POINT_ANSWERS}"
    baseline, point = answers
    if not baseline["exact"] or baseline["provenance"]["source"] != "store":
        return "what-if baseline not answered from the store"
    if point["exact"] or point["provenance"]["source"] != "surrogate":
        return "what-if not answered by the surrogate"
    if not point.get("bounds"):
        return "surrogate answer without bounds"
    return None
