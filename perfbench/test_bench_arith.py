"""Fast checks of the benchmark's own arithmetic (no workload runs here)."""

from __future__ import annotations

import json
import time

import pytest

from bench_load import (
    GRID_ANSWERS,
    RETENTIONS_US,
    answer_problem,
    class_counts,
    make_schedule,
)
from bench_probe import HostProbe
from bench_stats import (
    at_nominal_speed,
    combined_digest,
    digest_mismatches,
    latencies_ms,
    layer_totals,
    percentile,
    result_digest,
    self_times,
    sweep_digests,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_counts_from_due_time_not_send_time():
    # The second request was due at 1.0 s but its slot was busy until 2.0 s:
    # the service answered in 0.1 s, the user waited 1.1 s.
    due = [0.0, 1.0]
    done = [0.5, 2.1]
    assert latencies_ms(due, done) == pytest.approx([500.0, 1100.0])
    assert percentile(latencies_ms(due, done), 99) == pytest.approx(1100.0)
    with pytest.raises(ValueError):
        latencies_ms([0.0], [1.0, 2.0])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, 1, None, None),
        ("child", 1.0, 3.0, 2, 1, None),
        ("child", 2.0, 5.0, 3, 1, None),  # overlaps the first child
        ("grandchild", 2.5, 3.5, 4, 3, None),
        ("late", 9.0, 12.0, 5, 1, None),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    seconds, calls = layer_totals(spans)
    assert calls == {"parent": 1, "child": 2, "grandchild": 1, "late": 1}
    assert seconds["child"] == pytest.approx(2.0 + 2.0)
    # Self times of a properly nested tree add up to the root's duration.
    nested = [
        ("parent", 0.0, 10.0, 1, None, None),
        ("child", 1.0, 3.0, 2, 1, None),
        ("child", 4.0, 6.0, 3, 1, None),
        ("grandchild", 4.5, 5.0, 4, 3, None),
    ]
    assert sum(self_times(nested).values()) == pytest.approx(10.0)


def test_nominal_speed_cancels_a_slowed_host():
    # The host ran at half speed: 40 probes took 40 ms against 20 ms nominal,
    # so 3 s of program time reads as 1.5 s at nominal speed.
    assert at_nominal_speed(3.0, 40, 0.040, 0.0005) == pytest.approx(1.5)
    assert at_nominal_speed(3.0, 40, 0.020, 0.0005) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        at_nominal_speed(3.0, 0, 0.0, 0.0005)


def test_probe_marks_leave_the_probe_out():
    host = HostProbe()
    started = time.monotonic()
    before = host.mark()
    host.sample()
    host.sample()
    after = host.mark()
    elapsed = time.monotonic() - started
    assert after[2] - before[2] == 2
    assert after[3] - before[3] == pytest.approx(host.wall) and host.wall > 0.0
    # The wall mark is net of the probes' own time.
    assert after[0] - before[0] <= elapsed - host.wall + 1e-9


def test_digest_ignores_key_order_and_flags_changes():
    assert result_digest({"a": 1, "b": [1, 2]}) == result_digest({"b": [1, 2], "a": 1})
    assert result_digest({"a": 1}) != result_digest({"a": 1.0000001})
    summary = {
        "baselines": {"fft": {"execution_cycles": 10}},
        "results": {"fft": {"50us/R.all": {"execution_cycles": 12}}},
    }
    digests = sweep_digests(summary)
    assert sorted(digests) == ["fft/50us/R.all", "fft/SRAM baseline"]
    assert digest_mismatches(digests, dict(digests)) == []
    changed = json.loads(json.dumps(summary))
    changed["results"]["fft"]["50us/R.all"]["execution_cycles"] = 13
    assert digest_mismatches(digests, sweep_digests(changed)) == ["fft/50us/R.all"]
    missing = {"fft/SRAM baseline": digests["fft/SRAM baseline"]}
    assert digest_mismatches(digests, missing) == ["fft/50us/R.all"]
    assert digest_mismatches(missing, digests) == ["fft/50us/R.all"]
    assert combined_digest(digests) == combined_digest(dict(reversed(digests.items())))


def test_schedule_has_fixed_composition_and_distinct_whatifs():
    # A 35 s run at the default rate carries 1260 queries.
    first = make_schedule(seed=1, seconds=35)
    again = make_schedule(seed=1, seconds=35)
    other = make_schedule(seed=2, seconds=35)
    assert first == again
    assert first != other
    for schedule in (first, other):
        kinds = [query.kind for query in schedule]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == class_counts(1260)
        dues = [query.due for query in schedule]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 35.0
        whatifs = [
            json.loads(query.body)["retentions_us"][0]
            for query in schedule if query.kind == "whatif"
        ]
        assert len(set(whatifs)) == len(whatifs)
        assert all(RETENTIONS_US[0] < r < RETENTIONS_US[-1] for r in whatifs)
        assert not set(whatifs) & set(RETENTIONS_US)
    counts = class_counts(1260)
    assert counts["point"] >= 1000  # point p99 has ten samples beyond it
    assert counts["grid"] >= 200  # grid p95 likewise
    assert counts["whatif"] >= 20  # what-if p50 likewise


def _answer(exact, source, bounds=None):
    return {"exact": exact, "provenance": {"source": source}, "bounds": bounds}


def test_answer_problem_checks_class_flags():
    point = {"exact": True, "answers": [_answer(True, "store"), _answer(True, "store")]}
    assert answer_problem("point", 200, point) is None
    assert answer_problem("point", 500, point) == "HTTP 500"
    simulated = {"exact": True, "answers": [_answer(True, "store"), _answer(True, "simulated")]}
    assert answer_problem("point", 200, simulated) is not None
    grid = {"exact": True, "answers": [_answer(True, "store")] * GRID_ANSWERS}
    assert answer_problem("grid", 200, grid) == "grid answered without aggregates"
    assert answer_problem("grid", 200, {**grid, "aggregates": {"x": {}}}) is None
    whatif = {
        "exact": False,
        "answers": [_answer(True, "store"), _answer(False, "surrogate", {"r": [50, 100]})],
    }
    assert answer_problem("whatif", 200, whatif) is None
    no_bounds = {**whatif, "answers": [_answer(True, "store"), _answer(False, "surrogate")]}
    assert answer_problem("whatif", 200, no_bounds) == "surrogate answer without bounds"
    assert answer_problem("whatif", 200, point) is not None
