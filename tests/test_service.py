"""Tests for sweep-as-a-service: coalescing, memoisation, surrogates, HTTP.

Everything is asserted on exact counters (jobs executed, batches, coalesced
waits, store hits), never on timing -- the repo's CI currency.  The
simulator is only invoked where the test is *about* real results; a module
store is seeded once and shared.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from collections import OrderedDict

import pytest

import repro.campaign.executors as executors
import repro.service.core as service_core
import repro.workloads.suite as suite
from repro.api import Query, QueryValidationError, answer_query
from repro.api.answer import default_run_jobs
from repro.api.surrogate import SurrogateLattice
from repro.campaign.store import open_store
from repro.campaign.view import StoreSweep
from repro.config.parameters import DataPolicySpec
from repro.core.results import SimulationResult
from repro.energy.accounting import EnergyBreakdown
from repro.experiments.runner import point_averages
from repro.service import SweepService, make_service, serve
from repro.service.http import _encode_response, _route
from repro.validate.service import check_response

LENGTH_SCALE = 0.05

#: The grid the module store is seeded with (3 jobs: baseline + 2 points).
SEED_QUERY = Query(
    applications="fft",
    retentions_us=(50.0, 200.0),
    timing_policies=("refrint",),
    data_policies=("WB(32,32)",),
    length_scale=LENGTH_SCALE,
)


#: A two-application grid (10 jobs) for the aggregate tests.
GRID_QUERY = Query(
    applications="fft,blackscholes",
    retentions_us=(50.0,),
    timing_policies=("periodic", "refrint"),
    data_policies=("valid", "WB(32,32)"),
    length_scale=LENGTH_SCALE,
)


class CountingRunner:
    """An execution seam that counts exactly what the service runs."""

    def __init__(self):
        self.jobs = 0
        self.batches = 0

    def __call__(self, batch):
        self.batches += 1
        self.jobs += len(batch)
        return default_run_jobs(batch)


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    store = open_store(tmp_path_factory.mktemp("service") / "store", backend="segment")
    response = answer_query(SEED_QUERY, store=store)
    assert response.exact
    return store


@pytest.fixture(scope="module")
def grid_store(tmp_path_factory):
    """A segment store holding GRID_QUERY, and the cold answer that filled it."""
    store = open_store(tmp_path_factory.mktemp("grid") / "store", backend="segment")
    cold = answer_query(GRID_QUERY, store=store)
    assert all(answer.provenance.source == "simulated" for answer in cold.answers)
    return store, cold


def store_sweep_aggregates(store, query):
    """The aggregates as the figure layer computes them: every result read
    back from the store through :class:`StoreSweep` (the oracle)."""
    normalised = query.normalise()
    sweep = StoreSweep(
        store,
        jobs=[query_point.job for query_point in normalised.points],
        points=normalised.policy_points,
    )
    applications = list(query.applications)
    return {
        point.label: point_averages(sweep, point, applications)
        for point in normalised.policy_points
    }


def make_seeded_service(seeded_store, **kwargs):
    runner = CountingRunner()
    service = make_service(
        store=seeded_store,
        run_jobs=runner,
        surrogate_retentions=(50.0, 200.0),
        **kwargs,
    )
    return service, runner


class TestMemoisationAndCoalescing:
    def test_repeat_query_runs_zero_jobs(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)

        async def scenario():
            first = await service.answer(SEED_QUERY)
            second = await service.answer(SEED_QUERY)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.exact and second.exact
        # Zero simulator invocations: everything was already in the store.
        assert runner.jobs == 0 and runner.batches == 0
        assert service.stats.store_hits == 6
        assert all(a.provenance.source == "store" for a in second.answers)
        assert second.aggregates is not None
        assert set(second.aggregates) == {"50us/R.WB(32,32)", "200us/R.WB(32,32)"}

    def test_concurrent_identical_cold_queries_run_one_job(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)
        # 75us is cold (not stored, surrogates off): the only eDRAM point
        # of this query must be simulated exactly once across N queries.
        cold = SEED_QUERY.with_options(
            retentions_us=(75.0,), allow_surrogate=False
        )

        async def scenario():
            return await asyncio.gather(*[service.answer(cold) for _ in range(5)])

        responses = asyncio.run(scenario())
        assert all(response.exact for response in responses)
        assert runner.jobs == 1 and runner.batches == 1
        assert service.stats.jobs_executed == 1
        # The 4 queries that arrived while the first was simulating waited
        # on its future instead of running their own job.
        assert service.stats.coalesced == 4
        # All five answers carry the same job hash and exact values.
        answers = [response.answers[-1] for response in responses]
        assert len({a.provenance.job_key for a in answers}) == 1
        assert len({a.metrics["execution_cycles"] for a in answers}) == 1

    def test_fresh_results_are_committed_to_the_store(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)
        cold = SEED_QUERY.with_options(
            retentions_us=(80.0,), allow_surrogate=False
        )

        async def scenario():
            await service.answer(cold)
            return await service.answer(cold)

        second = asyncio.run(scenario())
        assert runner.jobs == 1  # the repeat was a pure store hit
        assert all(a.provenance.source == "store" for a in second.answers)


class TestGridAggregates:
    def test_cold_grid_aggregates_match_the_store_sweep(self, grid_store):
        store, cold = grid_store
        assert len(cold.aggregates) == 4
        assert cold.aggregates == store_sweep_aggregates(store, GRID_QUERY)

    def test_cold_grid_through_the_service(self, tmp_path):
        store = open_store(tmp_path / "store", backend="segment")
        service = SweepService(store=store)
        response = asyncio.run(service.answer(GRID_QUERY))
        assert service.stats.jobs_executed == 10
        assert response.aggregates == store_sweep_aggregates(store, GRID_QUERY)

    def test_stored_grid_aggregates_match_the_store_sweep(self, grid_store):
        store, _ = grid_store
        oracle = store_sweep_aggregates(store, GRID_QUERY)
        service = SweepService(store=store)
        served = asyncio.run(service.answer(GRID_QUERY))
        assert service.stats.store_hits == 10
        assert served.aggregates == oracle
        assert answer_query(GRID_QUERY, store=store).aggregates == oracle

    def test_stored_grid_reads_each_point_once(self, grid_store, monkeypatch):
        store, _ = grid_store
        read = []
        real_get = store.get
        monkeypatch.setattr(store, "get", lambda key: read.append(key) or real_get(key))
        unique = {point.key for point in GRID_QUERY.normalise().points}
        answer_query(GRID_QUERY, store=store)
        assert len(read) == len(unique) and set(read) == unique
        read.clear()
        asyncio.run(SweepService(store=store).answer(GRID_QUERY))
        assert len(read) == len(unique) and set(read) == unique


class TestSurrogates:
    def test_off_grid_is_surrogate_with_bounds_then_backfilled(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)
        off_grid = SEED_QUERY.with_options(retentions_us=(125.0,))

        async def scenario():
            first = await service.answer(off_grid)
            await service.drain_backfills()
            second = await service.answer(off_grid)
            return first, second

        first, second = asyncio.run(scenario())
        assert not first.exact
        surrogate = first.answers[-1]
        assert surrogate.exact is False
        assert surrogate.bounds == {"retention_us": [50.0, 200.0]}
        assert len(surrogate.provenance.corner_keys) == 2
        assert surrogate.provenance.source == "surrogate"
        assert surrogate.result is None
        # Mixed responses never serve grid aggregates.
        assert first.aggregates is None
        # The interpolated metrics lie inside the exact corner envelope.
        corners = [
            seeded_store.get(key) for key in surrogate.provenance.corner_keys
        ]
        lo, hi = sorted(c.memory_energy() for c in corners)
        assert lo <= surrogate.metrics["memory_energy_j"] <= hi
        # The exact job ran exactly once, asynchronously, and the re-query
        # is now an exact store hit with provenance naming the store.
        assert service.stats.backfills_scheduled == 1
        assert service.stats.backfills_completed == 1
        assert runner.jobs == 1
        assert second.exact
        exact = second.answers[-1]
        assert exact.provenance.source == "store"
        assert exact.provenance.job_key == surrogate.provenance.job_key
        assert exact.provenance.store_backend == "segment"

    def test_coalescing_onto_a_backfill(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)
        off_grid = SEED_QUERY.with_options(retentions_us=(150.0,))
        exact_only = off_grid.with_options(allow_surrogate=False)

        async def scenario():
            # The surrogate query schedules a backfill; the exact query for
            # the same grid arrives while it is in flight and must coalesce
            # onto it rather than run a second simulation.
            first = await service.answer(off_grid)
            second_task = asyncio.create_task(service.answer(exact_only))
            second = await second_task
            await service.drain_backfills()
            return first, second

        first, second = asyncio.run(scenario())
        assert not first.exact and second.exact
        assert runner.jobs == 1
        assert service.stats.coalesced == 1

    def test_outside_hull_simulates_exactly(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)
        outside = SEED_QUERY.with_options(retentions_us=(20.0,))

        async def scenario():
            return await service.answer(outside)

        response = asyncio.run(scenario())
        assert response.exact
        assert runner.jobs == 1
        assert service.stats.surrogate_answers == 0


def synthetic_results(jobs):
    """A stub executor: one made-up result per job, no simulation."""
    return [
        SimulationResult(
            config=None,
            application=job.application,
            execution_cycles=1000 + index,
            busy_core_cycles=500 + index,
            counters={"l1d_misses": 9, "l1d_hits": 7},
            energy=EnergyBreakdown(
                by_level={"l1": 1.0 + index}, by_component={"dynamic": 1.0}
            ),
            per_core_finish_cycles=[1000 + index],
            restored_label=job.label,
        )
        for index, job in enumerate(jobs)
    ]


def served_keys(response):
    return [answer.provenance.job_key for answer in response.answers]


def normalised_keys(query):
    return [point.key for point in query.normalise().unique_points()]


class TestWorkDoneOnce:
    """A service derives each normalisation, stored answer and trace once,
    and every response is the bytes the uncached path gives."""

    def test_to_json_is_json_dumps_of_to_dict(self, seeded_store, grid_store):
        store, cold = grid_store
        service, _ = make_seeded_service(seeded_store)
        lattice = SurrogateLattice(seeded_store, retentions_us=(50.0, 200.0))

        async def stored():
            return [
                await service.answer(SEED_QUERY),
                await service.answer(SEED_QUERY.with_options(include_baseline=False)),
            ]

        responses = [cold, answer_query(GRID_QUERY, store=store)]
        responses.extend(asyncio.run(stored()))
        # 90us is off-grid and never backfilled: a surrogate answer beside
        # an exact baseline, without aggregates.
        responses.append(
            answer_query(
                SEED_QUERY.with_options(retentions_us=(90.0,)),
                store=seeded_store,
                lattice=lattice,
            )
        )
        sources = {a.provenance.source for r in responses for a in r.answers}
        assert sources == {"store", "simulated", "surrogate"}
        assert [r.aggregates is not None for r in responses] == [
            True, True, True, False, False,
        ]
        assert any(a.normalised is None for a in responses[3].answers)
        for response in responses:
            assert response.to_json() == json.dumps(response.to_dict())

    def test_http_bodies_match_the_uncached_facade(self, grid_store):
        store, _ = grid_store
        service = make_service(store=store)
        body = json.dumps(GRID_QUERY.to_dict()).encode("utf-8")

        async def twice():
            served = []
            for _ in range(2):
                status, text = await _route(service, "POST", "/v1/query", body)
                served.append(_encode_response(status, text).split(b"\r\n\r\n", 1)[1])
            return served

        first, second = asyncio.run(twice())
        expected = json.dumps(answer_query(GRID_QUERY, store=store).to_dict())
        assert first == second == expected.encode("utf-8")
        assert service.stats.store_hits == 20

    def test_equal_requests_normalise_under_their_own_keys(self):
        whole = SEED_QUERY.with_options(
            data_policies=(DataPolicySpec.writeback(32, 32),)
        )
        fractional = SEED_QUERY.with_options(
            data_policies=(DataPolicySpec.writeback(32.0, 32),)
        )
        assert whole == fractional and hash(whole) == hash(fractional)
        assert normalised_keys(whole) != normalised_keys(fractional)
        service = SweepService(run_jobs=synthetic_results)

        async def scenario():
            return [await service.answer(q) for q in (whole, fractional, whole)]

        responses = asyncio.run(scenario())
        assert [served_keys(r) for r in responses] == [
            normalised_keys(whole), normalised_keys(fractional), normalised_keys(whole),
        ]

    def test_mutating_an_answer_leaves_the_next_response_alone(self, seeded_store):
        service, _ = make_seeded_service(seeded_store)

        async def scenario():
            first = await service.answer(SEED_QUERY)
            expected = first.to_json()
            answer = first.answers[1]
            answer.result["execution_cycles"] = -1
            answer.result["counters"]["l3_misses"] = -1
            answer.result["energy_by_level"]["l3"] = -1.0
            answer.result["per_core_finish_cycles"].append(-1)
            answer.metrics["memory_energy_j"] *= 2
            # The edited answer encodes its edits...
            assert first.to_json() == json.dumps(first.to_dict()) != expected
            # ...and the next response serves the stored values.
            return expected, (await service.answer(SEED_QUERY)).to_json()

        expected, again = asyncio.run(scenario())
        assert again == expected

    @pytest.mark.parametrize(
        "query",
        [
            SEED_QUERY.with_options(retentions_us=(85.0,), allow_surrogate=False),
            SEED_QUERY.with_options(retentions_us=(175.0,)),
        ],
        ids=["owned-miss", "backfill"],
    )
    def test_a_simulated_key_is_next_served_from_the_store(self, seeded_store, query):
        service, runner = make_seeded_service(seeded_store)

        async def scenario():
            first = await service.answer(query)
            await service.drain_backfills()
            second = await service.answer(query)
            fresh, _ = make_seeded_service(seeded_store)
            return first, second, await fresh.answer(query)

        first, second, fresh = asyncio.run(scenario())
        assert runner.jobs == 1
        assert first.answers[-1].provenance.source in ("simulated", "surrogate")
        assert {a.provenance.source for a in second.answers} == {"store"}
        assert second.to_json() == fresh.to_json()

    def test_backfills_of_one_workload_share_one_trace(
        self, seeded_store, monkeypatch
    ):
        monkeypatch.setattr(executors, "_WORKLOAD_CACHE", OrderedDict())
        builds = []
        build = suite.build_application
        monkeypatch.setattr(
            suite,
            "build_application",
            lambda *args, **kwargs: builds.append(args) or build(*args, **kwargs),
        )
        service, runner = make_seeded_service(seeded_store)

        async def scenario():
            for retention in (60.0, 140.0):
                query = SEED_QUERY.with_options(retentions_us=(retention,))
                assert not (await service.answer(query)).exact
                await service.drain_backfills()

        asyncio.run(scenario())
        assert service.stats.backfills_completed == 2 and runner.batches == 2
        assert len(builds) == 1

    def test_memos_stay_within_their_bounds(self, seeded_store, monkeypatch):
        queries = (
            SEED_QUERY, SEED_QUERY.with_options(include_baseline=False), SEED_QUERY,
        )

        async def serve_all(service, check=lambda: None):
            served = []
            for query in queries:
                served.append((await service.answer(query)).to_json())
                check()
            return served

        expected = asyncio.run(serve_all(make_seeded_service(seeded_store)[0]))
        # SEED_QUERY normalises to 3 points, without its baseline to 2.
        monkeypatch.setattr(service_core, "ENCODED_RESULT_ENTRIES", 2)
        monkeypatch.setattr(service_core, "NORMALISED_QUERY_POINTS", 3)
        service, _ = make_seeded_service(seeded_store)

        def kept_points():
            return sum(len(n.points) for n, _ in service._normalised.values())

        def within_bounds():
            assert len(service._encoded) <= 2
            assert kept_points() == service._normalised_points <= 3

        assert asyncio.run(serve_all(service, within_bounds)) == expected
        assert len(service._encoded) == 2 and len(service._normalised) == 1

    def test_a_put_evicts_its_key(self, tmp_path):
        store = open_store(tmp_path / "store")
        service = SweepService(store=store, run_jobs=synthetic_results)

        async def scenario():
            await service.answer(SEED_QUERY)
            await service.answer(SEED_QUERY)
            assert set(service._encoded) == set(normalised_keys(SEED_QUERY))
            job = SEED_QUERY.normalise().points[0].job
            await service._execute([job])
            return job.key()

        assert asyncio.run(scenario()) not in service._encoded


class TestServedAnswerValidation:
    def test_clean_response_has_no_violations(self, seeded_store):
        service, _ = make_seeded_service(seeded_store, validate_answers=True)

        async def scenario():
            return await service.answer(SEED_QUERY)

        response = asyncio.run(scenario())
        assert service.stats.validation_failures == 0
        assert check_response(response, store=seeded_store) == []

    def test_mislabelled_exactness_is_flagged(self, seeded_store):
        response = answer_query(SEED_QUERY, store=seeded_store)
        response.answers[1].exact = False  # an exact answer lying about itself
        violations = check_response(response, store=seeded_store)
        assert any("source" in v for v in violations)

    def test_tampered_metric_is_flagged(self, seeded_store):
        response = answer_query(SEED_QUERY, store=seeded_store)
        response.answers[1].metrics["memory_energy_j"] *= 2
        violations = check_response(response, store=seeded_store)
        assert any("disagrees with the result payload" in v for v in violations)

    def test_served_aggregates_pass_the_check(self, grid_store):
        store, cold = grid_store
        assert check_response(cold, store=store) == []
        stored = answer_query(GRID_QUERY, store=store)
        assert stored.aggregates and check_response(stored, store=store) == []

    def test_tampered_aggregate_is_flagged(self, grid_store):
        store, _ = grid_store
        response = answer_query(GRID_QUERY, store=store)
        label = next(iter(response.aggregates))
        response.aggregates[label]["system"] *= 1.001
        violations = check_response(response, store=store)
        assert len(violations) == 1
        assert violations[0].startswith(f"aggregate {label}: system")

    def test_aggregate_without_an_exact_answer_is_flagged(self, grid_store):
        store, _ = grid_store
        response = answer_query(GRID_QUERY, store=store)
        label = next(iter(response.aggregates))
        response.answers = [
            answer
            for answer in response.answers
            if (answer.application, answer.label) != ("fft", label)
        ]
        violations = check_response(response, store=store)
        assert any(v.startswith(f"aggregate {label}: not every") for v in violations)

    def test_surrogate_outside_envelope_is_flagged(self, seeded_store):
        lattice = SurrogateLattice(seeded_store, retentions_us=(50.0, 200.0))
        # 90us is off-grid and never backfilled by the other tests, so this
        # query is answered by interpolation even on the shared store.
        response = answer_query(
            SEED_QUERY.with_options(retentions_us=(90.0,)),
            store=seeded_store,
            lattice=lattice,
        )
        surrogate = response.answers[-1]
        assert not surrogate.exact
        surrogate.metrics["memory_energy_j"] *= 10
        violations = check_response(response, store=seeded_store)
        assert any("outside its corner envelope" in v for v in violations)


async def http_request(port, method, path, body=None, raw_body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = raw_body if raw_body is not None else (
        b"" if body is None else json.dumps(body).encode("utf-8")
    )
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body is not None or raw_body is not None:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode("ascii") + b"\r\n" + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(data.split(b" ", 2)[1])
    return status, json.loads(data.split(b"\r\n\r\n", 1)[1])


class TestHttpFrontEnd:
    def run_http(self, scenario, service=None):
        service = service if service is not None else SweepService()

        async def main():
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await scenario(service, port)
            finally:
                server.close()
                await server.wait_closed()

        return asyncio.run(main())

    def test_malformed_requests_get_4xx(self):
        async def scenario(service, port):
            results = {}
            results["bad_json"] = await http_request(
                port, "POST", "/v1/query", raw_body=b"{nope"
            )
            results["unknown_field"] = await http_request(
                port, "POST", "/v1/query", body={"applications": ["fft"], "x": 1}
            )
            results["bad_policy"] = await http_request(
                port, "POST", "/v1/query",
                body={"applications": ["fft"], "data_policies": ["smart"]},
            )
            results["duplicates"] = await http_request(
                port, "POST", "/v1/query", body={"applications": ["fft", "fft"]}
            )
            results["no_body"] = await http_request(port, "POST", "/v1/query")
            results["not_found"] = await http_request(port, "GET", "/v2/query")
            results["bad_method"] = await http_request(port, "GET", "/v1/query")
            return results

        results = self.run_http(scenario)
        assert results["bad_json"][0] == 400
        assert "not valid JSON" in results["bad_json"][1]["error"]
        assert results["unknown_field"][0] == 400
        assert "unknown query fields" in results["unknown_field"][1]["error"]
        assert results["bad_policy"][0] == 400
        assert "unknown data policy" in results["bad_policy"][1]["error"]
        assert results["duplicates"][0] == 400
        assert "duplicate applications" in results["duplicates"][1]["error"]
        assert results["no_body"][0] == 400
        assert results["not_found"][0] == 404
        assert results["bad_method"][0] == 405

    def test_health_schema_stats(self, seeded_store):
        service, _ = make_seeded_service(seeded_store)

        async def scenario(service, port):
            health = await http_request(port, "GET", "/v1/health")
            schema = await http_request(port, "GET", "/v1/schema")
            stats = await http_request(port, "GET", "/v1/stats")
            return health, schema, stats

        health, schema, stats = self.run_http(scenario, service)
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert health[1]["store_backend"] == "segment"
        assert health[1]["surrogate"] is True
        assert schema[0] == 200 and schema[1]["title"] == "QueryRequest"
        assert stats[0] == 200 and stats[1]["queries"] == 0

    def test_query_over_http_is_memoised(self, seeded_store):
        service, runner = make_seeded_service(seeded_store)

        async def scenario(service, port):
            return await http_request(
                port, "POST", "/v1/query", body=SEED_QUERY.to_dict()
            )

        status, body = self.run_http(scenario, service)
        assert status == 200
        assert body["exact"] is True
        assert runner.jobs == 0  # served entirely from the store
        assert len(body["answers"]) == 3
        assert all(a["provenance"]["source"] == "store" for a in body["answers"])
        assert body["aggregates"]


class TestCliServe:
    def test_rejects_bad_arguments(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve", "--store", str(tmp_path / "missing")]) == 2
        assert main(["serve", "--jobs", "0"]) == 2

    def test_duplicate_applications_rejected_at_the_parser(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--applications", "fft,fft"])

    def test_answer_query_facade_matches_service(self, seeded_store):
        # The sync facade and the async service answer from the same store
        # with the same provenance stamps.
        response = answer_query(SEED_QUERY, store=seeded_store)
        assert response.exact
        assert all(a.provenance.source == "store" for a in response.answers)
        normalised = [
            a.normalised for a in response.answers if a.label != "SRAM baseline"
        ]
        assert all(n is not None and 0 < n["memory"] < 1 for n in normalised)
