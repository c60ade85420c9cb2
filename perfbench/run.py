#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Refrint reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-refresh --seed 0 --seconds 35 --trace 0

Workloads drive the two user surfaces, each in its own process:

``sweep-refresh``
    ``repro.cli sweep --applications fft --length-scale 0.2 --retentions 50
    --jobs 1 --store-backend segment --json ... --report ...`` into an empty
    store: 15 jobs where the refresh layer does the most work (fft's shared
    footprint is 4x the L3; 50 us is the shortest Table 5.4 retention).
``sweep-short``
    The same command over fft,barnes,blackscholes at length 0.05: 45 short
    jobs, one application per paper class, so per-job fixed costs (trace
    build, hierarchy construction) dominate.
``serve-mixed``
    ``repro.cli serve`` with its defaults over a fresh copy of a store
    holding the three applications' whole grid (length 0.05, retentions
    50,100,200) at the default trace seed, under an open loop of 36
    queries/s for ``--seconds`` (see :mod:`bench_load`).

A sweep run repeats the cold sweep, each time in a fresh process into an
empty store, for ``--seconds`` (at least three times), and reports medians
over the sweeps.  The host is shared and its speed drifts by tens of
percent over tens of seconds, so every timed child runs the host probe of
:mod:`bench_probe` and each time it reports -- sweep seconds, a point's
latency, a set-up -- is read at the probe's nominal speed over exactly its
own interval.  The raw sweep seconds are printed beside them.

The seed picks the inputs: the sweeps' trace seed is ``2013 + seed`` (seed
0 is the repository default, whose per-job result digests are recorded in
``digests.json``); the serve load's schedule and query mix come from
``random.Random(seed)``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once with layer wrappers
(:mod:`bench_trace`) and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (jobs
for sweeps, queries for serve) and ``metrics``.  Scratch files go under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench_load import answer_problem, get_json, make_schedule, request, run_open_loop
from bench_probe import PROBE_NOMINAL_S, spawn_mark
from bench_stats import (
    at_nominal_speed,
    combined_digest,
    digest_mismatches,
    latencies_ms,
    layer_totals,
    percentile,
    sweep_digests,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS_FILE = BENCH_DIR / "digests.json"

#: The repository's default trace seed; benchmark seed n uses 2013 + n.
DEFAULT_TRACE_SEED = 2013

SWEEPS = {
    "sweep-refresh": ("fft", "0.2", "50"),
    "sweep-short": ("fft,barnes,blackscholes", "0.05", "50"),
}
#: The store ``serve-mixed`` answers from holds this grid: the lattice of
#: ``serve``'s default surrogate retentions.
SERVE_STORE_GRID = ("fft,barnes,blackscholes", "0.05", "50,100,200")
WORKLOADS = (*SWEEPS, "serve-mixed")

#: Cold sweeps per untraced sweep run, at the least.
MIN_SWEEPS = 3
#: Service boots timed per untraced serve run, before and after the load;
#: the median is reported.
SERVE_SETUPS = 7
#: A serve run whose last answer lands later than this past the end of its
#: schedule let its backlog grow; every query of it counts as failed.
BACKLOG_LIMIT_S = 2.0
#: Upper bound on any one child process (the run must end within 180 s).
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "cpu_s": "s",
    "p50_ms": "ms",
}

#: Per-layer metrics: span self seconds by layer, exact counts beside them.
LAYER_SPANS = {
    "workloads.build_s": "workloads.build",
    "hierarchy.init_s": "hierarchy.init",
    "cpu.core_init_s": "cpu.core_init",
    "refresh.build_s": "refresh.build",
    "refresh.drain_s": "refresh.drain",
    "access.self_s": "access",
    "energy.account_s": "energy.account",
    "results.to_dict_s": "results.to_dict",
    "results.from_dict_s": "results.from_dict",
    "campaign.store_put_s": "campaign.store_put",
    "campaign.store_get_s": "campaign.store_get",
    "campaign.job_hash_s": "campaign.job_hash",
    "experiments.render_s": "experiments.render",
    "api.parse_s": "api.parse",
    "api.normalise_s": "api.normalise",
    "api.surrogate_s": "api.surrogate",
    "api.aggregates_s": "api.aggregates",
    "api.to_dict_s": "api.to_dict",
    "service.answer_s": "service.answer",
    "service.backfill_s": "service.backfill",
    "http.self_s": "http",
}
LAYER_CALLS = {
    "workloads.builds": "workloads.build",
    "hierarchy.inits": "hierarchy.init",
    "campaign.store_gets": "campaign.store_get",
}
REPLAY_COUNTS = {
    "refresh.drains": "wheel_drains",
    "refresh.wheel_scans": "wheel_scans",
    "refresh.wheel_skips": "wheel_skips",
    "access.runs": "runs",
    "access.references": "references",
    "access.protocol_calls": "protocol_calls",
    "access.slow_references": "slow_references",
}
SERVICE_COUNTS = {
    "service.backfills": "backfills_completed",
    "service.store_hits": "store_hits",
    "service.jobs_executed": "jobs_executed",
    "service.surrogate_answers": "surrogate_answers",
    "service.coalesced": "coalesced",
}
#: Serve latencies by query class and percentile (untraced pass).
CLASS_LATENCIES = {
    "point_p50_ms": ("point", 50),
    "point_p99_ms": ("point", 99),
    "grid_p50_ms": ("grid", 50),
    "grid_p95_ms": ("grid", 95),
    "whatif_p50_ms": ("whatif", 50),
}
#: Every per-layer metric and its unit, each layer's counts beside its clock.
PER_LAYER_UNITS = {
    "workloads.build_s": "s", "workloads.builds": "count",
    "hierarchy.init_s": "s", "hierarchy.inits": "count",
    "cpu.core_init_s": "s",
    "refresh.build_s": "s", "refresh.drain_s": "s", "refresh.drains": "count",
    "refresh.wheel_scans": "count", "refresh.wheel_skips": "count",
    "access.self_s": "s", "access.runs": "count", "access.references": "count",
    "access.protocol_calls": "count", "access.slow_references": "count",
    "core.refs_per_s": "1/s",
    "energy.account_s": "s",
    "results.to_dict_s": "s", "results.from_dict_s": "s",
    "campaign.store_put_s": "s", "campaign.store_get_s": "s",
    "campaign.store_gets": "count", "campaign.job_hash_s": "s",
    "experiments.render_s": "s",
    "api.parse_s": "s", "api.normalise_s": "s", "api.surrogate_s": "s",
    "api.aggregates_s": "s", "api.to_dict_s": "s",
    "service.answer_s": "s", "service.wait_p50_ms": "ms", "service.wait_p99_ms": "ms",
    "service.store_hits": "count", "service.coalesced": "count",
    "service.surrogate_answers": "count", "service.backfill_s": "s",
    "service.backfills": "count", "service.jobs_executed": "count",
    "http.self_s": "s",
    "other.self_s": "s", "trace.total_s": "s", "trace.overhead_pct": "%",
    "client.late_p99_ms": "ms", "p99_ms": "ms",
    **{name: "ms" for name in CLASS_LATENCIES},
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: List[str], log: Path) -> subprocess.Popen:
    """Start ``python3 <args>`` in the checkout, output to ``log``."""
    with open(log, "ab") as handle:
        return subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdout=handle, stderr=subprocess.STDOUT,
        )


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S):
    """Wait for a child (killing it after ``timeout``); its resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def rss_mib(usage) -> float:
    return usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def host_speed(origin: List[float], mark: List[float]) -> float:
    """The host's speed against nominal, by the probes run between two marks.

    Marks are a child's ``bench_probe`` marks; seconds between them times
    this are the seconds at the probe's nominal speed.
    """
    return at_nominal_speed(1.0, mark[2] - origin[2], mark[3] - origin[3], PROBE_NOMINAL_S)


def since(origin: List[float], mark: List[float], calibrate: bool, column: int = 0) -> float:
    """Wall (or, column 1, CPU) seconds between two marks; calibrated, at nominal speed."""
    seconds = mark[column] - origin[column]
    return seconds * host_speed(origin, mark) if calibrate else seconds


def import_repro():
    """Make the checkout's ``src`` importable here (for output checks)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_args(grid: Tuple[str, str, str], trace_seed: int, out: Path) -> List[str]:
    applications, length_scale, retentions = grid
    return [
        "--applications", applications, "--length-scale", length_scale,
        "--retentions", retentions, "--jobs", "1", "--store-backend", "segment",
        "--seed", str(trace_seed), "--store", str(out / "store"),
        "--json", str(out / "sweep.json"), "--report", str(out / "report.md"),
    ]


def timed_import() -> float:
    """Spawn a fresh interpreter until ``repro.cli`` is imported; seconds at nominal speed."""
    spawned = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child_sweep.py"), "--import-only", "--calibrate"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    imported = json.loads(child.stdout.splitlines()[-1])
    return since(spawn_mark(spawned), imported, calibrate=True)


def run_sweep(
    workload: str, trace_seed: int, out: Path, traced: bool = False, calibrate: bool = False
) -> dict:
    """One cold sweep in a fresh process: its seconds and point latencies.

    Each grid point is due when the sweep starts (the user asked for the
    whole grid at once) and done when the next job's progress line, or the
    campaign line for the last, shows it committed.  With ``calibrate`` the
    child's host probe runs from its start and every time, the set-up
    included, is read at the probe's nominal speed (:func:`since`).
    """
    out.mkdir(parents=True)
    args = [str(BENCH_DIR / "child_sweep.py"), "--result", str(out / "result.json")]
    if traced:
        args += ["--spans", str(out / "spans.json")]
    if calibrate:
        args.append("--calibrate")
    args += ["--", *sweep_args(SWEEPS[workload], trace_seed, out)]
    spawned = time.monotonic()
    usage = reap(spawn(args, out / "child.log"))
    run = {"dir": out, "ok": False, "rss": rss_mib(usage)}
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        return run
    run.update(
        ok=result["code"] == 0 and result["campaign_end"] is not None,
        setup=since(spawn_mark(spawned), result["imported"], calibrate),
    )
    if not run["ok"]:
        return run
    start, end = result["start"], result["end"]
    done = [*result["job_marks"][1:], result["campaign_end"]]
    run.update(
        wall=since(start, end, calibrate),
        cpu=since(start, end, calibrate, column=1),
        jobs_ms=[since(start, mark, calibrate) * 1000.0 for mark in done],
        raw_wall=end[0] - start[0],
        probes=end[2] - start[2],
        probe_seconds=end[3] - start[3],
    )
    return run


def recorded_digests(workload: str) -> Dict[str, str]:
    """Per-job result digests of ``workload`` at seed 0 (see ``digests.json``)."""
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text()).get(workload, {})


def check_sweep(
    workload: str, seed: int, run: dict, reference: Optional[Dict[str, str]]
) -> Tuple[int, int, Dict[str, str]]:
    """(jobs, failed jobs, per-job digests) of one finished sweep.

    A job fails when the CLI failed, when its stored result is missing or
    breaks an invariant of ``repro.validate.check_result``, when the JSON
    summary lacks it, or when its result digest differs from
    ``reference`` (the recorded digests on the default seed, else the
    first sweep of the run: the simulator is deterministic).
    """
    import_repro()
    from repro.api.query import QueryRequest
    from repro.campaign.jobs import enumerate_jobs
    from repro.campaign.store import open_store
    from repro.config.parameters import TimingPolicyKind
    from repro.config.presets import paper_data_policies, scaled_architecture
    from repro.validate.invariants import check_result

    applications, length_scale, retentions = SWEEPS[workload]
    grid = QueryRequest(
        applications=applications,
        retentions_us=retentions,
        timing_policies=(TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT),
        data_policies=tuple(paper_data_policies()),
        length_scale=float(length_scale),
        seed=DEFAULT_TRACE_SEED + seed,
    )
    jobs = enumerate_jobs(
        grid.workload_requests(), grid.policy_points(), scaled_architecture()
    )
    names = [f"{job.application}/{job.label}" for job in jobs]
    out = run["dir"]
    if not run["ok"] or not (out / "report.md").is_file():
        return len(jobs), len(jobs), {}
    try:
        observed = sweep_digests(json.loads((out / "sweep.json").read_text()))
    except (OSError, ValueError, KeyError):
        return len(jobs), len(jobs), {}
    failed = set()
    with open_store(out / "store", backend="segment") as store:
        for name, job in zip(names, jobs):
            result = store.get(job.key())
            if result is None or not check_result(result, config=job.config).ok:
                failed.add(name)
    failed.update(name for name in names if name not in observed)
    if reference is not None:
        failed.update(digest_mismatches(reference, observed))
    return len(jobs), len(failed), observed


def repeat_sweeps(args, work: Path, trace_seed: int) -> Tuple[List[dict], List[float]]:
    """Cold sweeps back to back for ``--seconds``; (sweeps, set-up samples).

    Each sweep is preceded by a timed import, so set-up is sampled twice
    per sweep across the whole run.  No sweep starts that the last one's
    length says would end past the deadline, once ``MIN_SWEEPS`` are done.
    """
    deadline = time.monotonic() + args.seconds
    runs: List[dict] = []
    setups: List[float] = []
    while True:
        began = time.monotonic()
        setups.append(timed_import())
        run = run_sweep(args.workload, trace_seed, work / f"sweep{len(runs)}", calibrate=True)
        runs.append(run)
        if not run["ok"]:
            return runs, setups
        setups.append(run["setup"])
        now = time.monotonic()
        if len(runs) >= MIN_SWEEPS and now + (now - began) > deadline:
            return runs, setups


def sweep_workload(args, work: Path) -> dict:
    trace_seed = DEFAULT_TRACE_SEED + args.seed
    report = {"attempted": 0, "failed": 0, "digests": {}}
    if args.trace:
        runs = [
            run_sweep(args.workload, trace_seed, work / "untraced"),
            run_sweep(args.workload, trace_seed, work / "traced", traced=True),
        ]
    else:
        runs, setups = repeat_sweeps(args, work, trace_seed)
    reference = recorded_digests(args.workload) if args.seed == 0 else None
    for run in runs:
        attempted, failed, digests = check_sweep(args.workload, args.seed, run, reference)
        report["attempted"] += attempted
        report["failed"] += failed
        report["digests"] = report["digests"] or digests
        if reference is None:
            reference = digests or None
    if any(not run["ok"] for run in runs):
        report["metrics"] = {}
        return report
    if args.trace:
        untraced, traced = runs
        spans = json.loads((traced["dir"] / "spans.json").read_text())
        report["metrics"] = layer_metrics(
            spans["spans"], spans["replay"], total=traced["wall"],
            overhead=traced["wall"] / untraced["wall"] - 1.0,
        )
        report["metrics"]["p99_ms"] = percentile(untraced["jobs_ms"], 99)
        return report
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["rss"] for run in runs),
        "wall_s": statistics.median(run["wall"] for run in runs),
        "cpu_s": statistics.median(run["cpu"] for run in runs),
        "p50_ms": statistics.median(percentile(run["jobs_ms"], 50) for run in runs),
    }
    report["raw"] = {
        "sweep walls (s)": [run["raw_wall"] for run in runs],
        "probe means (ms)": [1000.0 * run["probe_seconds"] / run["probes"] for run in runs],
    }
    report["samples"] = {
        "sweeps": len(runs), "setups": len(setups), "jobs": len(runs[0]["jobs_ms"]),
        "probes": sum(run["probes"] for run in runs),
    }
    return report


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------


def seeded_store() -> Path:
    """The ``SERVE_STORE_GRID`` at the default seed, built once per checkout."""
    target = WORK_DIR / "serve-store"
    if target.is_dir():
        return target
    scratch = WORK_DIR / f"serve-store.{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    args = ["-m", "repro.cli", "sweep", *sweep_args(SERVE_STORE_GRID, DEFAULT_TRACE_SEED, scratch)]
    proc = spawn(args, scratch / "seed.log")
    reap(proc, timeout=600.0)
    if proc.returncode != 0:
        raise RuntimeError(f"seeding the serve store failed; see {scratch / 'seed.log'}")
    try:
        os.rename(scratch / "store", target)
    except OSError:
        if not target.is_dir():
            raise
    shutil.rmtree(scratch, ignore_errors=True)
    return target


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def boot(store: Path, log: Path, spans: Optional[Path] = None):
    """Start the service; (process, port, spawn time, marks file).

    The service is up once /v1/health answers; its marks file (see
    :mod:`child_serve`) then holds the mark of when it began to listen.
    """
    port = free_port()
    marks = log.with_suffix(".marks.json")
    marks.unlink(missing_ok=True)
    args = [str(BENCH_DIR / "child_serve.py"), "--marks", str(marks)]
    if spans is not None:
        args += ["--spans", str(spans)]
    args += ["--", "--store", str(store), "--store-backend", "segment", "--port", str(port)]
    spawned = time.monotonic()
    proc = spawn(args, log)
    deadline = spawned + 60.0
    while True:
        try:
            if request(port, "GET", "/v1/health", timeout=5.0)[0] == 200 and marks.is_file():
                return proc, port, spawned, marks
        except OSError:
            pass
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise RuntimeError(f"service did not come up; see {log}")
        time.sleep(0.005)


def boot_seconds(spawned: float, marks: Path) -> float:
    """Spawn until the service listened, at the host probe's nominal speed."""
    return since(spawn_mark(spawned), json.loads(marks.read_text())["ready"], calibrate=True)


def stop(proc: subprocess.Popen):
    """Interrupt the service (``serve`` exits cleanly on SIGINT); its usage."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
    return reap(proc, timeout=30.0)


def wait_backfills(port: int, expected: int, timeout: float = 60.0) -> dict:
    """Poll /v1/stats until every what-if's backfill has landed."""
    deadline = time.monotonic() + timeout
    while True:
        stats = get_json(port, "/v1/stats")
        done = stats["backfills_completed"] >= max(expected, stats["backfills_scheduled"])
        if done or time.monotonic() > deadline:
            return stats
        time.sleep(0.05)


def timed_boots(store: Path, work: Path, count: int) -> List[float]:
    """Boot and stop the service ``count`` times; each boot's seconds."""
    setups = []
    for _ in range(count):
        proc, _, spawned, marks = boot(store, work / "boots.log")
        stop(proc)
        setups.append(boot_seconds(spawned, marks))
    return setups


def serve_pass(args, work: Path, traced: bool, setup_samples: int) -> dict:
    """One service over a fresh store copy under the seeded schedule.

    Besides the service under load, ``setup_samples - 1`` boots are timed,
    half before the load and half after it.
    """
    work.mkdir(parents=True)
    store = work / "store"
    shutil.copytree(seeded_store(), store)
    queries = make_schedule(args.seed, args.seconds)
    whatifs = sum(query.kind == "whatif" for query in queries)
    setups = timed_boots(store, work, (setup_samples - 1) // 2)
    spans = work / "spans.json" if traced else None
    proc, port, spawned, marks = boot(store, work / "service.log", spans)
    setups.append(boot_seconds(spawned, marks))
    try:
        start, outcomes = run_open_loop(port, queries)
        stats = wait_backfills(port, whatifs)
    finally:
        usage = stop(proc)
    setups += timed_boots(store, work, setup_samples // 2)
    service = json.loads(marks.read_text())
    return {
        "store": store, "seconds": args.seconds, "start": start, "outcomes": outcomes,
        "stats": stats, "whatifs": whatifs, "setups": setups, "usage": usage,
        "spawned": spawned, "ready": service["ready"], "end": service["end"],
        "spans": json.loads(spans.read_text()) if traced else None,
    }


def check_serve(run: dict) -> int:
    """Failed queries of one serve pass.

    A query fails on a non-200, on flags or provenance that do not fit its
    class (:func:`bench_load.answer_problem`), or on a finding of
    ``repro.validate.check_response``.  The whole run fails when its
    backlog grew or ``/v1/stats`` does not end with no errors and one
    executed backfill per what-if.
    """
    import_repro()
    from repro.api.query import QueryResponse
    from repro.campaign.store import open_store
    from repro.validate.service import check_response

    outcomes = run["outcomes"]
    stats = run["stats"]
    late_end = max(outcome.done for outcome in outcomes) - (run["start"] + run["seconds"])
    if (
        late_end > BACKLOG_LIMIT_S
        or stats["errors"] != 0
        or not stats["backfills_completed"] == stats["jobs_executed"] == run["whatifs"]
    ):
        return len(outcomes)
    findings: Dict[bytes, List[str]] = {}
    failed = 0
    with open_store(run["store"], backend="segment") as store:
        for outcome in outcomes:
            try:
                response = json.loads(outcome.body) if outcome.status == 200 else None
            except ValueError:
                response = None
            if answer_problem(outcome.kind, outcome.status, response) is not None:
                failed += 1
                continue
            if outcome.body not in findings:
                try:
                    served = QueryResponse.from_dict(response)
                except (KeyError, TypeError, ValueError) as error:
                    findings[outcome.body] = [f"unreadable response: {error}"]
                else:
                    findings[outcome.body] = check_response(served, store=store)
            failed += bool(findings[outcome.body])
    return failed


def send_latencies(outcomes) -> List[float]:
    return latencies_ms([o.sent for o in outcomes], [o.done for o in outcomes])


def serve_workload(args, work: Path) -> dict:
    passes = [serve_pass(args, work / "untraced", False, 1 if args.trace else SERVE_SETUPS)]
    if args.trace:
        passes.append(serve_pass(args, work / "traced", True, 1))
    report = {"attempted": 0, "failed": 0}
    for run in passes:
        report["attempted"] += len(run["outcomes"])
        report["failed"] += check_serve(run)
    untraced = passes[0]
    outcomes = untraced["outcomes"]
    # Latencies at the nominal host speed the service's probes saw under load.
    speed = host_speed(untraced["ready"], untraced["end"])
    due_ms = [
        ms * speed for ms in latencies_ms([o.due for o in outcomes], [o.done for o in outcomes])
    ]
    classes = {
        name: percentile([ms for ms, o in zip(due_ms, outcomes) if o.kind == kind], rank)
        for name, (kind, rank) in CLASS_LATENCIES.items()
    }
    if args.trace:
        traced = passes[1]
        overhead = sum(send_latencies(traced["outcomes"])) / sum(send_latencies(outcomes)) - 1.0
        report["metrics"] = {
            **serve_layer_metrics(traced, overhead),
            "p99_ms": percentile(due_ms, 99),
            **classes,
        }
        return report
    report["metrics"] = {
        "setup_s": statistics.median(untraced["setups"]),
        "peak_rss_mb": rss_mib(untraced["usage"]),
        "wall_s": max(o.done for o in outcomes) - untraced["start"],
        "cpu_s": since(spawn_mark(untraced["spawned"]), untraced["end"], calibrate=True, column=1),
        "p50_ms": classes["point_p50_ms"],
    }
    report["classes"] = classes
    report["raw"] = {
        "service cpu (s)": [cpu_seconds(untraced["usage"])],
        "point p50 (ms)": [classes["point_p50_ms"] / speed],
        "host speed under load": [speed],
    }
    report["samples"] = {
        "setups": len(untraced["setups"]),
        **{kind: sum(o.kind == kind for o in outcomes) for kind in ("point", "grid", "whatif")},
    }
    return report


# ---------------------------------------------------------------------------
# Per-layer accounting
# ---------------------------------------------------------------------------


def layer_metrics(spans, replay, total: float, overhead: float, service=None) -> dict:
    """Per-layer metrics from the spans that make up ``total`` seconds.

    The layers' self times plus ``other.self_s`` sum to ``trace.total_s``.
    A layer off this workload's path reads 0.
    """
    seconds, calls = layer_totals(spans)
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    metrics.update({name: seconds.get(span, 0.0) for name, span in LAYER_SPANS.items()})
    metrics.update({name: calls.get(span, 0) for name, span in LAYER_CALLS.items()})
    metrics.update({name: replay.get(field, 0) for name, field in REPLAY_COUNTS.items()})
    run_seconds = sum(end - start for name, start, end, *_ in spans if name == "access")
    if run_seconds:
        metrics["core.refs_per_s"] = replay.get("references", 0) / run_seconds
    metrics["other.self_s"] = total - sum(seconds.values())
    metrics["trace.total_s"] = total
    metrics["trace.overhead_pct"] = overhead * 100.0
    if service is not None:
        metrics.update({name: service[field] for name, field in SERVICE_COUNTS.items()})
    return metrics


def serve_layer_metrics(run: dict, overhead: float) -> dict:
    """Per-layer metrics of a traced serve pass.

    A span is on a query's path when it carries the query's request id and
    lies inside the query's HTTP span.  Everything else the service did for
    the load -- backfill simulations and the store commits behind them --
    runs beside the queries, so the end-to-end time is every query's
    latency from send plus the duration of that off-path work.  ``other``
    is the part of each latency outside the HTTP span: connecting, the
    kernel and the client.
    """
    outcomes = run["outcomes"]
    spans = [tuple(span) for span in run["spans"]["spans"]]
    http = {span[5]: span for span in spans if span[0] == "http" and span[5] is not None}

    def on_path(span) -> bool:
        owner = http.get(span[5])
        return owner is not None and owner[1] <= span[1] and span[2] <= owner[2]

    path = {span[3] for span in spans if on_path(span)}
    # Off-path work; HTTP spans without a request id are the harness's own
    # /v1/health and /v1/stats polls.
    off = {span[3] for span in spans if span[3] not in path and span[0] != "http"}
    kept = [span for span in spans if span[3] in path or span[3] in off]
    off_path_s = sum(span[2] - span[1] for span in kept if span[3] in off and span[4] not in off)
    total = sum(outcome.done - outcome.sent for outcome in outcomes) + off_path_s
    other = sum(
        (outcome.done - outcome.sent)
        - (http[rid][2] - http[rid][1] if rid in http else 0.0)
        for rid, outcome in enumerate(outcomes)
    )
    answers = {span[5]: span for span in kept if span[0] == "service.answer" and span[3] in path}
    waits = [(answers[rid][1] - outcome.due) * 1000.0
             for rid, outcome in enumerate(outcomes) if rid in answers]
    metrics = layer_metrics(kept, run["spans"]["replay"], total, overhead, run["stats"])
    metrics["other.self_s"] = other
    metrics["service.wait_p50_ms"] = percentile(waits, 50) if waits else 0.0
    metrics["service.wait_p99_ms"] = percentile(waits, 99) if waits else 0.0
    metrics["client.late_p99_ms"] = percentile([(o.sent - o.due) * 1000.0 for o in outcomes], 99)
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def print_report(args, report: dict, units: Dict[str, str]) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6f} fraction "
          f"({failed} of {attempted} failed)")
    if report.get("digests"):
        print(f"digest {args.workload} {combined_digest(report['digests'])}")
    for name, value in report.get("classes", {}).items():
        print(f"{name} {value:.4f} ms")
    for name, value in report.get("samples", {}).items():
        print(f"samples.{name} {value}")
    for name, values in report.get("raw", {}).items():
        print(f"raw {name} " + " ".join(f"{value:.4f}" for value in values))
    metrics = report["metrics"]
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]} {unit}")
    if "trace.total_s" in metrics:
        layers = sum(metrics[name] for name in LAYER_SPANS)
        print(f"accounting: layers {layers:.4f} s + other {metrics['other.self_s']:.4f} s"
              f" = {layers + metrics['other.self_s']:.4f} s"
              f" (trace.total_s {metrics['trace.total_s']:.4f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.workload in SWEEPS:
            report = sweep_workload(args, work)
        else:
            report = serve_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    print_report(args, report, units)
    metrics = report["metrics"]
    correct = report["failed"] == 0 and all(name in metrics for name in units)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
