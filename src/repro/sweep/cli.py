"""The ``sweep`` and ``sweep-worker`` verbs.

``sweep`` expands a :class:`~repro.sweep.template.SweepTemplate` (or an
``include`` corpus like ``scenarios/fig_all.json``) into its cell grid,
executes the cells across a worker pool into a content-addressed
:class:`~repro.sweep.store.SweepStore` (``--resume`` skips completed
cells, so an interrupted sweep picks up where it died), and prints the
aggregated per-experiment tables.  ``--dry-run`` prints the plan —
which cells exist, their spec hashes, which are already complete, and
the group each pending cell would run in (the grouping ``run_sweep``
itself forms for ``--workers``) — without running anything.
``--status`` reports live corpus progress
(done/claimed/orphaned/failed/pending, per-host throughput) from the
store's claim and completion records.  ``--trace out.jsonl`` records a
span-level JSONL trace and ``--telemetry`` enables the metrics registry
without a trace file; both print a greppable ``# TELEMETRY`` line, and
stored cells stay byte-identical either way.

``sweep-worker`` is the distributed counterpart: it drains unclaimed
cells of a corpus from a (typically shared) store until everything is
done, speaking the coordinator-free claim protocol of
:mod:`repro.sweep.dist` — run any number of workers on any number of
hosts against one ``--store`` directory (``shared-fs:PATH`` for NFS-style
mounts) and they partition the corpus between them, reclaiming the cells
of workers that die mid-cell once their lease expires.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.sweep.aggregate import aggregate_cells
from repro.sweep.dist.claims import DEFAULT_LEASE_SECONDS
from repro.sweep.dist.status import corpus_status, format_status
from repro.sweep.dist.worker import run_worker
from repro.sweep.executor import _groups, run_sweep
from repro.sweep.store import SweepStore
from repro.sweep.template import expand_corpus, load_templates
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def register(sub) -> None:
    """Add ``sweep`` and ``sweep-worker`` to the CLI's subparsers."""
    sweep_cmd = sub.add_parser(
        "sweep",
        help="expand a sweep template over its axes and run the cells in parallel",
    )
    sweep_cmd.add_argument(
        "template", help="sweep template (or corpus 'include') JSON file"
    )
    sweep_cmd.add_argument(
        "--workers", type=int, default=1, help="worker-pool size (1 = inline)"
    )
    sweep_cmd.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the store",
    )
    sweep_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print the expanded cell plan (completion state, and the group "
            "each pending cell runs in) without running"
        ),
    )
    sweep_cmd.add_argument(
        "--status",
        action="store_true",
        help=(
            "report corpus progress (done/claimed/orphaned/failed/pending and "
            "per-host throughput) from the store's claim records, without running"
        ),
    )
    sweep_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the --dry-run plan (or --status report) as JSON (for tooling)",
    )
    sweep_cmd.add_argument(
        "--store",
        type=str,
        default=None,
        help=(
            "sweep store directory (default: sweep-store/<template-name>); "
            "prefix with a backend, e.g. shared-fs:/mnt/sweeps/run1"
        ),
    )
    sweep_cmd.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help="work-claim lease seconds (matters when other workers share the store)",
    )
    sweep_cmd.add_argument(
        "--output",
        type=str,
        default=None,
        help="directory for the aggregated per-experiment result JSON files",
    )
    sweep_cmd.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "enable the telemetry metrics registry for this sweep and print "
            "the TELEMETRY summary line (stored cells stay byte-identical)"
        ),
    )
    sweep_cmd.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="record a telemetry trace (JSONL) of the sweep to this path",
    )
    sweep_cmd.set_defaults(handler=_sweep)

    worker_cmd = sub.add_parser(
        "sweep-worker",
        help=(
            "drain a sweep corpus cooperatively: claim, execute, and store "
            "unclaimed cells until the corpus is done (run N of these on N hosts)"
        ),
    )
    worker_cmd.add_argument(
        "template", help="sweep template (or corpus 'include') JSON file"
    )
    worker_cmd.add_argument(
        "--store",
        type=str,
        default=None,
        help=(
            "shared sweep store directory (default: sweep-store/<template-name>); "
            "prefix with a backend, e.g. shared-fs:/mnt/sweeps/run1"
        ),
    )
    worker_cmd.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help="claim lease seconds (heartbeats renew at lease/4; default 60)",
    )
    worker_cmd.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between rescans while waiting on other workers' cells",
    )
    worker_cmd.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after executing this many cells here (default: unlimited)",
    )
    worker_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up waiting after this many idle seconds (default: wait forever)",
    )
    worker_cmd.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-attempt cells other workers marked failed (clears their records)",
    )
    worker_cmd.set_defaults(handler=_sweep_worker)


def _sweep_setup(args: argparse.Namespace):
    """Expand the corpus and open its store (shared by sweep/sweep-worker)."""
    templates = load_templates(args.template)
    cells = expand_corpus(templates)
    corpus = os.path.splitext(os.path.basename(args.template))[0]
    store_dir = args.store or os.path.join("sweep-store", corpus)
    return cells, corpus, store_dir, SweepStore(store_dir)


def _sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: expand, (dry-)run/status, aggregate."""
    if args.json and not (args.dry_run or args.status):
        raise ValidationError(
            "--json is the machine-readable plan: pass --dry-run (or --status) with it"
        )
    if args.dry_run and args.status:
        raise ValidationError("pass at most one of --dry-run and --status")
    cells, corpus, store_dir, store = _sweep_setup(args)

    if args.status:
        status = corpus_status(cells, store)
        if args.json:
            print(json.dumps(status.as_dict(), indent=2))
        else:
            for line in format_status(status, corpus, store_dir):
                print(line)
        return 0

    if args.dry_run:
        done = {cell.key for cell in cells if store.has(cell.key)}
        pending = [cell for cell in cells if cell.key not in done]
        groups = _groups(pending, args.workers)
        group_of = {cell.key: index for index, group in enumerate(groups) for cell in group}
        if args.json:
            plan = {
                "corpus": corpus,
                "template": args.template,
                "store": store_dir,
                "total": len(cells),
                "complete": len(done),
                "groups": len(groups),
                "cells": [
                    {
                        "template": cell.template,
                        "index": cell.index,
                        "key": cell.key,
                        "experiment": cell.spec.experiment,
                        "assignment": dict(cell.assignment),
                        "complete": cell.key in done,
                        "group": group_of.get(cell.key),
                    }
                    for cell in cells
                ],
            }
            print(json.dumps(plan, indent=2))
        else:
            print(
                f"# sweep plan {corpus}: {len(cells)} cells "
                f"({len(done)} complete) -> {store_dir} in {len(groups)} groups"
            )
            for cell in cells:
                group = group_of.get(cell.key)
                status = "pending" if group is not None else "done"
                column = f"g{group}" if group is not None else "-"
                print(
                    f"{cell.key[:12]}  {status:>7}  {column:>4}  {cell.spec.experiment}  "
                    f"{cell.describe()}"
                )
        return 0

    telemetry_on = bool(args.telemetry or args.trace)
    if telemetry_on:
        telemetry.enable(trace=args.trace)
    try:
        report = run_sweep(
            cells,
            store,
            workers=args.workers,
            resume=args.resume,
            lease_seconds=args.lease,
            on_cell=lambda cell: print(
                f"# cell {cell.key[:12]} done: {cell.spec.experiment} ({cell.describe()})"
            ),
        )
    finally:
        if telemetry_on:
            telemetry_line = telemetry.summary_line()
            telemetry.disable()
    print(f"# {report.summary()} store={store_dir}")
    if telemetry_on:
        print(f"# {telemetry_line}")
    if report.failed:
        _print_failures(report.failed)
        print(
            f"error: {len(report.failed)} of {report.total} sweep cells failed; "
            "aggregation skipped (fix the cells and re-run with --resume)",
            file=sys.stderr,
        )
        return 1
    if report.deferred:
        print(
            f"# {len(report.deferred)} cells deferred to other live workers; "
            "aggregation skipped (re-run with --resume once they finish, or "
            "check progress with --status)",
            file=sys.stderr,
        )
        return 0
    merged = aggregate_cells(cells, store)
    for result in merged.values():
        print(f"# {result.figure}: {result.description}")
        print(result.table())
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for experiment, result in merged.items():
            with open(os.path.join(args.output, f"{experiment}.json"), "w") as handle:
                json.dump(result.as_dict(), handle, indent=2)
        summary = {
            "corpus": corpus,
            "store": store_dir,
            "report": {
                "total": report.total,
                "workers": report.workers,
                "executed": report.executed,
                "skipped": report.skipped,
                "failed": [failure.as_dict() for failure in report.failed],
                "deferred": report.deferred,
            },
            "experiments": sorted(merged),
        }
        with open(os.path.join(args.output, "summary.json"), "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"# aggregated results written to {args.output}")
    return 0


def _print_failures(failures) -> None:
    """Per-cell error lines plus the stored traceback, to stderr."""
    for failure in failures:
        print(f"# cell {failure.key[:12]} FAILED: {failure.error}", file=sys.stderr)
        if failure.traceback:
            for line in failure.traceback.rstrip().splitlines():
                print(f"#   {line}", file=sys.stderr)


def _sweep_worker(args: argparse.Namespace) -> int:
    """The ``sweep-worker`` subcommand: drain a (shared) store's corpus."""
    cells, corpus, store_dir, store = _sweep_setup(args)
    print(f"# sweep-worker draining {corpus}: {len(cells)} cells -> {store_dir}")

    def on_event(kind: str, cell, outcome) -> None:
        if kind == "done":
            suffix = " (reclaimed)" if outcome.get("reclaimed") else ""
            print(
                f"# cell {cell.key[:12]} done in {outcome.get('elapsed', 0.0):.2f}s: "
                f"{cell.spec.experiment} ({cell.describe()}){suffix}",
                flush=True,
            )
        elif kind == "failed":
            print(f"# cell {cell.key[:12]} FAILED here", flush=True)
        elif kind == "skipped-failed":
            print(
                f"# cell {cell.key[:12]} skipped: failure record from "
                f"{outcome.get('host', '?')}:{outcome.get('pid', '?')}",
                flush=True,
            )
        elif kind == "waiting":
            print(
                f"# waiting on {outcome.get('pending', '?')} cells claimed by "
                "other workers...",
                flush=True,
            )

    report = run_worker(
        cells,
        store,
        poll_seconds=args.poll,
        max_cells=args.max_cells,
        retry_failed=args.retry_failed,
        wait_timeout=args.timeout,
        on_event=on_event,
        lease_seconds=args.lease,
        handle_signals=True,
    )
    print(f"# {report.summary()} store={store_dir}")
    if report.interrupted is not None:
        print(
            f"# interrupted by signal {report.interrupted}; live claim "
            "released — another worker can take the cell immediately",
            file=sys.stderr,
        )
        return 128 + report.interrupted
    if report.failed:
        _print_failures(report.failed)
    for key in report.skipped_failed:
        print(
            f"# cell {key[:12]} failed on another worker (see claims/{key}.failed)",
            file=sys.stderr,
        )
    if report.timed_out:
        print(
            f"error: timed out with {len(report.pending)} cells still pending "
            "(other workers hold live leases); re-run to keep waiting",
            file=sys.stderr,
        )
        return 1
    if report.failed_total():
        print(
            f"error: {report.failed_total()} of {report.total} sweep cells failed; "
            "fix the cells and re-run (failure records carry the tracebacks)",
            file=sys.stderr,
        )
        return 1
    return 0
