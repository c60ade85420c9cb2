"""Command-line interface for the Refrint reproduction.

Six subcommands cover the common workflows without writing any Python:

``tables``
    Print the paper's descriptive tables (3.1, 5.1-5.4, 6.1), regenerated
    from the library's own data structures.

``simulate``
    Run one application on the SRAM baseline and one eDRAM policy point and
    print the normalised comparison.

``sweep``
    Run the Table 5.4 sweep for a set of applications, print the figures of
    Chapter 6 as text tables, and optionally write a JSON summary and a
    Markdown report.  The sweep runs through the campaign engine:
    ``--jobs N`` fans the grid out over N worker processes (results are
    bit-identical to a serial run), ``--store DIR`` persists every point to
    a content-addressed segment store, and ``--resume`` skips points already
    present in the store.

``validate``
    Re-derive the analytic counter/energy invariants for every run of a
    persisted campaign and scan the grid for anomalous perf patterns
    (e.g. refresh energy that fails to shrink with longer retention).
    Exits non-zero on any violation or anomaly, so CI can gate on it;
    ``--json`` writes the machine-readable artifact.

``serve``
    Boot the sweep query service: an asyncio HTTP endpoint answering
    POSTed (workload, config-grid) queries from a result store, coalescing
    concurrent identical queries on job hash, interpolating off-grid
    configurations (``exact=False`` surrogates with asynchronous exact
    backfill) and scheduling genuine misses onto the campaign executors.
    The argument surface is the same typed :class:`QueryRequest` schema the
    HTTP body uses, so CLI and service answers share job hashes and stores.

``store``
    Maintain a campaign result store: ``store ls DIR`` lists its entries,
    ``store gc DIR`` drops stray files and repairs or retires corrupt
    entries (``--dry-run`` to preview), ``store verify DIR`` re-checks
    every entry's content hash, payload round-trip, index consistency and
    crash damage, and ``store migrate SRC DST`` imports a legacy
    one-file-per-result directory into a new segment store.

A legacy store directory makes ``sweep``, ``validate``, ``serve`` and
``store`` exit with status 2 before any work starts, and so does a store
stamped by the other trace generator for ``sweep`` and ``serve``, which
write to it.

Examples::

    python -m repro.cli tables
    python -m repro.cli simulate --application fft --timing refrint \
        --data "WB(32,32)" --retention-us 50
    python -m repro.cli sweep --applications fft,barnes,blackscholes \
        --length-scale 0.5 --report sweep.md --json sweep.json
    python -m repro.cli sweep --applications all --jobs 4 \
        --store results/ --resume
    python -m repro.cli store verify results/
    python -m repro.cli store migrate old-results/ results/
    python -m repro.cli serve --store results/ --port 8023
    python -m repro.cli validate --store results/ \
        --applications fft,blackscholes --retentions 50 \
        --length-scale 0.05 --json validation.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.api.query import QueryRequest, QueryValidationError
from repro.campaign.engine import make_executor, run_campaign
from repro.campaign.store import StoreProvenanceError, open_store
from repro.config.parameters import DataPolicySpec, SimulationConfig, TimingPolicyKind
from repro.config.presets import paper_data_policies, scaled_architecture
from repro.core.simulator import RefrintSimulator
from repro.core.sweep import PolicyPoint
from repro.experiments import figures as figure_module
from repro.experiments import tables as table_module
from repro.experiments.report import sweep_report
from repro.experiments.runner import headline_summary
from repro.workloads.suite import APPLICATION_NAMES, DEFAULT_SEED, build_application

# ---------------------------------------------------------------------------
# Argument parsing: one source of truth
#
# Every textual policy/application/retention argument is parsed by the
# QueryRequest schema (repro.api.query) -- the same parsers the HTTP service
# runs on POSTed payloads -- so the CLI and the network API literally cannot
# drift.  The argparse adapters below only translate QueryValidationError
# into argparse.ArgumentTypeError for the usual usage-line error rendering.
# ---------------------------------------------------------------------------


def _adapt(parse, text: str):
    try:
        return parse(text)
    except QueryValidationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _data_policy_arg(text: str) -> DataPolicySpec:
    return _adapt(QueryRequest.parse_data_policy, text)


def _timing_policy_arg(text: str) -> TimingPolicyKind:
    return _adapt(QueryRequest.parse_timing_policy, text)


def _applications_arg(text: str) -> List[str]:
    return list(_adapt(QueryRequest.parse_applications, text))


def _retentions_arg(text: str) -> tuple:
    return _adapt(QueryRequest.parse_retentions, text)


def _store_backend_arg(parser: argparse.ArgumentParser) -> None:
    # The segment layout is the only one; the option stays so existing
    # command lines that name it keep working.
    parser.add_argument(
        "--store-backend", choices=("segment",), default="segment",
        help="on-disk layout of the result store (segment, the only one)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Refrint eDRAM refresh reproduction"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("tables", help="print the paper's descriptive tables")

    simulate = commands.add_parser(
        "simulate", help="run one application on one eDRAM policy point"
    )
    simulate.add_argument(
        "--application", default="fft", choices=sorted(APPLICATION_NAMES)
    )
    simulate.add_argument("--timing", type=_timing_policy_arg, default="refrint")
    simulate.add_argument("--data", type=_data_policy_arg, default="WB(32,32)")
    simulate.add_argument("--retention-us", type=float, default=50.0)
    simulate.add_argument("--length-scale", type=float, default=0.5)

    sweep = commands.add_parser("sweep", help="run the Table 5.4 sweep")
    sweep.add_argument(
        "--applications", type=_applications_arg,
        default=["fft", "barnes", "blackscholes"],
    )
    sweep.add_argument("--length-scale", type=float, default=0.5)
    sweep.add_argument(
        "--retentions", type=_retentions_arg, default="50,100,200",
        help="comma-separated retention times in microseconds",
    )
    sweep.add_argument("--json", type=Path, default=None, help="write a JSON summary")
    sweep.add_argument("--report", type=Path, default=None, help="write a Markdown report")
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the campaign engine (1 = in-process)",
    )
    sweep.add_argument(
        "--store", type=Path, default=None,
        help="directory of the per-point result store",
    )
    _store_backend_arg(sweep)
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip points already present in the result store (needs --store)",
    )
    sweep.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="base RNG seed for the synthetic workload traces",
    )

    validate = commands.add_parser(
        "validate",
        help="check analytic invariants and perf patterns of a stored campaign",
    )
    validate.add_argument(
        "--store", type=Path, required=True,
        help="directory of the campaign's result store",
    )
    _store_backend_arg(validate)
    validate.add_argument(
        "--applications", type=_applications_arg,
        default=["fft", "barnes", "blackscholes"],
        help="applications the campaign was run with (defines the grid)",
    )
    validate.add_argument(
        "--length-scale", type=float, default=0.5,
        help="workload length scale the campaign was run with",
    )
    validate.add_argument(
        "--retentions", type=_retentions_arg, default="50,100,200",
        help="comma-separated retention times in microseconds",
    )
    validate.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="base RNG seed the campaign was run with",
    )
    validate.add_argument(
        "--json", type=Path, default=None,
        help="write the machine-readable validation artifact",
    )
    validate.add_argument(
        "--rtol", type=float, default=None,
        help="relative slack for the anomaly scan's monotone comparisons",
    )
    validate.add_argument(
        "--strict-missing", action="store_true",
        help="also fail when grid cells are absent from the store",
    )

    serve = commands.add_parser(
        "serve", help="serve sweep queries over HTTP from a result store"
    )
    serve.add_argument(
        "--store", type=Path, default=None,
        help="result store to answer from and backfill into (optional)",
    )
    _store_backend_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023)
    serve.add_argument(
        "--jobs", type=int, default=1, help="simulator worker processes"
    )
    serve.add_argument(
        "--surrogate-retentions", type=_retentions_arg, default=None,
        help="retention grid of the surrogate lattice in microseconds "
             "(default: 50,100,200)",
    )
    serve.add_argument(
        "--no-surrogate", action="store_true",
        help="never interpolate; every miss is simulated exactly",
    )
    serve.add_argument(
        "--validate-answers", action="store_true",
        help="run the served-answer invariant check on every response",
    )

    store = commands.add_parser("store", help="maintain a campaign result store")
    store.add_argument(
        "action", choices=("ls", "gc", "verify", "migrate"),
        help="ls: list entries; gc: drop orphans and repair/retire corrupt "
             "entries; verify: re-check content hashes and index "
             "consistency; migrate: import a legacy one-file-per-result "
             "store into a new segment store",
    )
    store.add_argument(
        "root", type=Path,
        help="result store directory (for migrate: the legacy store)",
    )
    store.add_argument(
        "destination", type=Path, nargs="?", default=None,
        help="for migrate: directory of the new segment store (must not "
             "exist or be empty)",
    )
    store.add_argument(
        "--dry-run", action="store_true",
        help="for gc: report what would be removed without deleting",
    )
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _run_tables(out) -> int:
    for table in (
        table_module.policy_taxonomy_table(),
        table_module.architecture_table(),
        table_module.cell_comparison_table(),
        table_module.applications_table(),
        table_module.sweep_table(),
        table_module.application_binning_table(),
    ):
        print(table_module.render_table(table), file=out)
        print(file=out)
    return 0


def _run_simulate(args, out) -> int:
    architecture = scaled_architecture()
    point = PolicyPoint(args.retention_us, args.timing, args.data)
    workload = build_application(
        args.application, architecture, length_scale=args.length_scale
    )
    print(f"simulating {args.application} / SRAM baseline ...", file=out)
    baseline = RefrintSimulator(SimulationConfig.sram(architecture)).run(workload)
    print(f"simulating {args.application} / {point.label} ...", file=out)
    result = RefrintSimulator(point.simulation_config(architecture)).run(workload)
    print(file=out)
    print(f"memory energy vs SRAM : {result.normalised_memory_energy(baseline):.3f}", file=out)
    print(f"system energy vs SRAM : {result.normalised_system_energy(baseline):.3f}", file=out)
    print(f"execution time vs SRAM: {result.normalised_execution_time(baseline):.3f}", file=out)
    print(f"L3 refreshes          : {result.counter('l3_refreshes')}", file=out)
    print(f"DRAM accesses         : {result.counter('dram_accesses')}", file=out)
    return 0


def _grid_request(args) -> QueryRequest:
    """The canonical request behind ``sweep`` and ``validate`` arguments.

    Same normalisation as a POSTed query: the grid spans both timing
    policies and the paper's seven data policies at the requested
    retentions, so CLI campaigns and served answers share job hashes (and
    therefore stores).
    """
    return QueryRequest(
        applications=args.applications,
        retentions_us=args.retentions,
        timing_policies=(TimingPolicyKind.PERIODIC, TimingPolicyKind.REFRINT),
        data_policies=tuple(paper_data_policies()),
        length_scale=args.length_scale,
        seed=args.seed,
    )


def _open_store(path: Path, check_provenance: bool):
    """Open ``--store`` before any work starts; None after printing why not.

    ``check_provenance`` is for the commands that write the store: a store
    stamped by the other trace generator fails them here instead of at
    their first write.
    """
    try:
        store = open_store(path)
        if check_provenance:
            store.check_provenance()
    except (ValueError, StoreProvenanceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    return store


def _run_sweep(args, out) -> int:
    if args.resume and args.store is None:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    architecture = scaled_architecture()
    try:
        request = _grid_request(args)
    except QueryValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = None
    if args.store is not None:
        store = _open_store(args.store, check_provenance=True)
        if store is None:
            return 2
    retentions = request.retentions_us
    points = request.policy_points()
    requests = request.workload_requests()
    sweep, stats = run_campaign(
        requests,
        points=points,
        architecture=architecture,
        executor=make_executor(args.jobs),
        store=store,
        resume=args.resume,
        progress=lambda message: print(f"  {message}", file=out),
    )
    print(f"campaign: {stats.summary()}", file=out)
    for figure_fn in (
        figure_module.figure_6_1,
        figure_module.figure_6_2,
        figure_module.figure_6_3,
        figure_module.figure_6_4,
    ):
        print(file=out)
        print(figure_module.render_figure(figure_fn(sweep)), file=out)
    try:
        summary = headline_summary(sweep, retention_us=retentions[0])
        print(file=out)
        print(f"headline @{retentions[0]:g}us:", file=out)
        for key, value in summary.items():
            print(f"  {key:28s} {value:.3f}", file=out)
    except ValueError:
        pass
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(sweep.to_dict(), indent=2, sort_keys=True))
        print(f"wrote {args.json}", file=out)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(sweep_report(sweep))
        print(f"wrote {args.report}", file=out)
    return 0


def _run_validate(args, out) -> int:
    from repro.campaign.jobs import enumerate_jobs
    from repro.campaign.view import StoreSweep
    from repro.validate.anomaly import DEFAULT_RTOL
    from repro.validate.report import as_json_dict, render_markdown, validate_sweep

    if not args.store.is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    architecture = scaled_architecture()
    try:
        request = _grid_request(args)
    except QueryValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = _open_store(args.store, check_provenance=False)
    if store is None:
        return 2
    points = request.policy_points()
    jobs = enumerate_jobs(request.workload_requests(), points, architecture)
    sweep = StoreSweep(store, jobs, points)
    rtol = args.rtol if args.rtol is not None else DEFAULT_RTOL
    validation = validate_sweep(sweep, architecture=architecture, rtol=rtol)
    print(render_markdown(validation), file=out)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(as_json_dict(validation), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}", file=out)
    if not validation.ok:
        return 1
    if args.strict_missing and validation.anomalies.missing:
        return 1
    return 0


def _run_serve(args, out) -> int:
    from repro.service import run_service

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.store is not None and not args.store.is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    store = None
    if args.store is not None:
        store = _open_store(args.store, check_provenance=True)
        if store is None:
            return 2
    surrogate_retentions = (
        () if args.no_surrogate else args.surrogate_retentions
    )
    run_service(
        store=store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        surrogate_retentions=surrogate_retentions,
        validate_answers=args.validate_answers,
        announce=lambda message: print(message, file=out),
    )
    return 0


def _run_store(args, out) -> int:
    from repro.campaign.maintenance import (
        migrate_store,
        store_gc,
        store_ls,
        store_verify,
    )

    if not args.root.is_dir():
        print(f"error: {args.root} is not a directory", file=sys.stderr)
        return 2
    if args.action == "migrate":
        if args.destination is None:
            print("error: store migrate needs a destination", file=sys.stderr)
            return 2
        try:
            copied, skipped = migrate_store(args.root, args.destination)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"migrated {copied} entries to {args.destination}", file=out)
        if skipped:
            print(
                f"warning: {skipped} unreadable entries were not imported; "
                f"a resumed campaign re-runs their jobs",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.destination is not None:
        print(
            f"error: store {args.action} takes one directory", file=sys.stderr
        )
        return 2
    try:
        if args.action == "gc":
            report = store_gc(args.root, dry_run=args.dry_run)
        else:
            report = (store_ls if args.action == "ls" else store_verify)(args.root)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "ls":
        for entry in report.entries:
            status = "ok" if entry.ok else f"BAD: {entry.problem}"
            key = (entry.key or entry.path.stem)[:16]
            print(
                f"{key}  {entry.application or '?':14s} "
                f"{entry.label or '?':20s} {status}",
                file=out,
            )
        print(
            f"{len(report.entries)} entries, {len(report.orphans)} stray files",
            file=out,
        )
        return 0
    if args.action == "gc":
        verb = "would remove" if args.dry_run else "removed"
        for path in report.removed:
            print(f"{verb} {path.name}", file=out)
        for key in report.dropped_keys:
            print(f"dropped index entry {key[:16]}...", file=out)
        for key in report.reindexed_keys:
            print(f"reindexed record {key[:16]}...", file=out)
        kept = (
            len(report.entries) - len(report.problems) + len(report.reindexed_keys)
        )
        print(f"{verb} {len(report.removed)} files, kept {kept} entries", file=out)
        return 0
    # verify
    for entry in report.problems:
        print(f"FAIL {entry.path.name}: {entry.problem}", file=out)
    for path in report.orphans:
        print(f"FAIL {path.name}: stray non-entry file", file=out)
    ok_count = len(report.entries) - len(report.problems)
    print(
        f"verified {len(report.entries)} entries: {ok_count} ok, "
        f"{len(report.problems)} bad, {len(report.orphans)} stray files",
        file=out,
    )
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        return _run_tables(out)
    if args.command == "simulate":
        return _run_simulate(args, out)
    if args.command == "sweep":
        return _run_sweep(args, out)
    if args.command == "validate":
        return _run_validate(args, out)
    if args.command == "serve":
        return _run_serve(args, out)
    if args.command == "store":
        return _run_store(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
