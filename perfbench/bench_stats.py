"""Arithmetic of the benchmark: percentiles, span self times, result digests.

Pure functions over plain data, so ``test_bench_arith.py`` can pin them
without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: One recorded span: (name, start, end, span id, parent span id, request id).
#: Times are ``time.monotonic()`` seconds, which every process on the host
#: shares, so client and service spans line up.
Span = Tuple[str, float, float, int, Optional[int], Optional[int]]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q!r} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def latencies_ms(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Per-request latency in ms, timed from when each request was *due*.

    In an open loop a request sent late (because the generator or a full
    connection slot held it back) still counts the wait from its scheduled
    time, so a stall shows on every request queued behind it.
    """
    if len(due) != len(done):
        raise ValueError("due and done times must pair up")
    return [(end - start) * 1000.0 for start, end in zip(due, done)]


def at_nominal_speed(seconds: float, probes: int, probe_seconds: float, nominal: float) -> float:
    """``seconds`` as they would read on a host running the probe in ``nominal``.

    Over the same interval ``probes`` runs of a fixed probe took
    ``probe_seconds`` in all; a host slowed by other tenants slows both,
    so the ratio cancels the slowdown.
    """
    if probes <= 0 or probe_seconds <= 0:
        raise ValueError("no probe ran in the interval")
    return seconds * nominal * probes / probe_seconds


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for _, start, end, span_id, _, _ in spans
    }


def layer_totals(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Summed self seconds and call counts per span name."""
    spans = list(spans)
    own = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, _, _, span_id, _, _ in spans:
        seconds[name] += own[span_id]
        calls[name] += 1
    return dict(seconds), dict(calls)


def result_digest(result: Mapping[str, object]) -> str:
    """SHA-256 of a result dict's canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_digests(summary: Mapping[str, object]) -> Dict[str, str]:
    """Per-job digests of a ``sweep --json`` summary, keyed ``app/label``."""
    digests: Dict[str, str] = {}
    for application, result in summary["baselines"].items():
        digests[f"{application}/SRAM baseline"] = result_digest(result)
    for application, points in summary["results"].items():
        for label, result in points.items():
            digests[f"{application}/{label}"] = result_digest(result)
    return digests


def combined_digest(digests: Mapping[str, str]) -> str:
    """One digest over a whole ``app/label -> digest`` map."""
    blob = "\n".join(f"{key} {digests[key]}" for key in sorted(digests))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest_mismatches(
    recorded: Mapping[str, str], observed: Mapping[str, str]
) -> List[str]:
    """Jobs whose digest differs from the record, or that only one side has."""
    return sorted(
        key
        for key in set(recorded) | set(observed)
        if observed.get(key) != recorded.get(key)
    )
