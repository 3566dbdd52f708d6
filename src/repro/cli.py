"""Command-line interface: run any registered scenario.

Usage::

    python -m repro.cli list [--json]
    python -m repro.cli run fig1-delay-ping --n 50 --k 2,3,4,5,6,7,8
    python -m repro.cli run fig2-churn-rate --n 24 --seed 7 --output fig2.json
    python -m repro.cli run --spec scenario.json
    python -m repro.cli spec fig3-epsilon --n 30 --output scenario.json
    python -m repro.cli sweep scenarios/fig_all.json --workers 4 --resume
    python -m repro.cli sweep scenarios/fig_all.json --status --store /mnt/sweeps/run1
    python -m repro.cli sweep-worker scenarios/fig_all.json --store shared-fs:/mnt/sweeps/run1
    python -m repro.cli serve --spec scenarios/serve_smoke.json --socket /tmp/overlay.sock
    python -m repro.cli serve-load --socket /tmp/overlay.sock --model multipath --lookups 1000000
    python -m repro.cli serve-replay serve-log.jsonl
    python -m repro.cli run fig3-rewirings --trace trace.jsonl
    python -m repro.cli trace summarize trace.jsonl --check-coverage 0.9

``run`` builds the named experiment's default
:class:`~repro.scenario.spec.ScenarioSpec`, applies the command-line
overrides, executes it through a
:class:`~repro.scenario.session.SimulationSession`, prints the series as
a tab-separated table, and optionally writes the full result as JSON.
``--spec`` loads a previously saved spec instead — re-running a saved
spec reproduces the exact same result.  ``spec`` writes the
would-be-executed spec as JSON without running it.

``sweep`` expands a :class:`~repro.sweep.template.SweepTemplate` (or an
``include`` corpus like ``scenarios/fig_all.json``) into its cell grid,
executes the cells across a worker pool into a content-addressed
:class:`~repro.sweep.store.SweepStore` (``--resume`` skips completed
cells, so an interrupted sweep picks up where it died), and prints the
aggregated per-experiment tables.  ``--dry-run`` prints the plan —
which cells exist, their spec hashes, and which are already complete —
without running anything.  ``--status`` reports live corpus progress
(done/claimed/orphaned/failed/pending, per-host throughput) from the
store's claim and completion records.

``sweep-worker`` is the distributed counterpart: it drains unclaimed
cells of a corpus from a (typically shared) store until everything is
done, speaking the coordinator-free claim protocol of
:mod:`repro.sweep.dist` — run any number of workers on any number of
hosts against one ``--store`` directory (``shared-fs:PATH`` for NFS-style
mounts) and they partition the corpus between them, reclaiming the cells
of workers that die mid-cell once their lease expires.

``serve`` holds a spec's deployments live behind a local socket (see
:mod:`repro.serve`), ``serve-load`` measures a running server with a
traffic-model workload, and ``serve-replay`` re-runs a server's mutation
log through the batch engine and digest-checks every served epoch.

Telemetry (see :mod:`repro.telemetry` and ``docs/observability.md``):
``run --trace out.jsonl`` and ``sweep --trace out.jsonl`` record a
span-level JSONL trace of the execution (``sweep --telemetry`` enables
the metrics registry without a trace file); both print a greppable
``# TELEMETRY spans=... events=...`` line.  ``trace summarize`` turns a
trace into a per-phase self-time table and can gate on attribution
coverage (``--check-coverage 0.9``).  ``serve --metrics-port`` exposes
the live registry as a Prometheus text endpoint.  None of it changes any
result: records and stored cells are byte-identical with telemetry on or
off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.scenario.registry import resolve, scenario_names
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.sweep import (
    SweepStore,
    aggregate_cells,
    expand_corpus,
    load_templates,
    run_sweep,
)
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_param_value(text: str):
    """Best-effort literal parsing of a ``--param key=value`` value.

    Comma-separated values become lists; each piece is tried as JSON
    (numbers, booleans, null — with Python-style ``True``/``False``/
    ``None`` capitalisation accepted too) and falls back to a plain
    string.
    """
    _literals = {"true": True, "false": False, "none": None, "null": None}

    def atom(piece: str):
        lowered = piece.lower()
        if lowered in _literals:
            return _literals[lowered]
        try:
            return json.loads(piece)
        except json.JSONDecodeError:
            return piece

    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) > 1:
        return [atom(piece) for piece in parts if piece]
    return atom(parts[0])


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'EGOIST: Overlay Routing using Selfish Neighbor Selection'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the available experiments")
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable registry dump (name, help, default spec, "
            "smoke args), deterministically ordered by name"
        ),
    )

    def add_run_options(command: argparse.ArgumentParser, *, with_run_outputs: bool):
        command.add_argument(
            "experiment",
            nargs="?",
            default=None,
            help="experiment to run (see 'repro list')",
        )
        command.add_argument("--n", type=int, default=None, help="number of overlay nodes")
        command.add_argument(
            "--k",
            type=_parse_int_list,
            default=None,
            help="comma-separated neighbour budgets (single value for fixed-k experiments)",
        )
        command.add_argument("--seed", type=int, default=None, help="random seed")
        command.add_argument(
            "--epochs", type=int, default=None, help="engine epochs (time-driven experiments)"
        )
        command.add_argument(
            "--trials", type=int, default=None, help="trials per point (sampling experiments)"
        )
        command.add_argument(
            "--br-rounds", type=int, default=None, help="best-response dynamics rounds"
        )
        command.add_argument(
            "--churn-rates",
            type=_parse_float_list,
            default=None,
            help="comma-separated churn rates (fig2-churn-rate)",
        )
        command.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="experiment-specific parameter override (repeatable)",
        )
        if with_run_outputs:
            command.add_argument(
                "--spec",
                type=str,
                default=None,
                help=(
                    "run a ScenarioSpec JSON file instead of a named experiment "
                    "(other overrides still apply on top)"
                ),
            )
            command.add_argument(
                "--trace",
                type=str,
                default=None,
                metavar="PATH",
                help=(
                    "record a telemetry trace (JSONL) of the run to this path; "
                    "summarize it with 'repro trace summarize PATH'"
                ),
            )
        command.add_argument(
            "--output",
            type=str,
            default=None,
            help="write the result (or, for 'spec', the spec) as JSON to this path",
        )

    run = sub.add_parser("run", help="run one experiment and print its series")
    add_run_options(run, with_run_outputs=True)

    spec_cmd = sub.add_parser(
        "spec", help="print (or save) an experiment's ScenarioSpec as JSON"
    )
    add_run_options(spec_cmd, with_run_outputs=False)

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
        help="print the expanded cell plan (and completion state) without running",
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
        default=None,
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
        default=None,
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

    serve_cmd = sub.add_parser(
        "serve", help="hold a scenario's deployments live behind a local socket"
    )
    serve_cmd.add_argument(
        "--spec", type=str, required=True, help="ScenarioSpec JSON file to serve"
    )
    _add_endpoint_options(serve_cmd)
    serve_cmd.add_argument(
        "--cadence",
        type=float,
        default=0.0,
        help="seconds between automatic epochs (0 = advance only on 'step' requests)",
    )
    serve_cmd.add_argument(
        "--warmup-epochs",
        type=int,
        default=1,
        help="epochs to commit before accepting connections (so lookups have an overlay)",
    )
    serve_cmd.add_argument(
        "--log",
        type=str,
        default=None,
        help="append the replayable mutation log (JSONL) to this path",
    )
    serve_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "also expose the telemetry registry as a Prometheus text "
            "endpoint on this TCP port (0 = ephemeral)"
        ),
    )
    serve_cmd.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help=(
            "directory for periodic atomic session checkpoints (requires "
            "--log); enables bounded-replay crash recovery"
        ),
    )
    serve_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        help=(
            "checkpoint (and rotate the log) every N epochs; 0 disables "
            "periodic checkpoints (default 8)"
        ),
    )
    serve_cmd.add_argument(
        "--keep-checkpoints",
        type=int,
        default=0,
        help=(
            "retain only the newest N checkpoints and compact older log "
            "segments (0 = keep everything so serve-replay covers the "
            "full history; default 0)"
        ),
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help=(
            "admitted-request queue bound; excess requests get an "
            "immediate retryable 'busy' error (default 1024)"
        ),
    )
    serve_cmd.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "run the server as a supervised child: restart on crash with "
            "bounded exponential backoff, recover the session from "
            "checkpoint + log on each restart"
        ),
    )
    serve_cmd.add_argument(
        "--restart-backoff",
        type=float,
        default=0.25,
        help="first restart delay, seconds (doubles per crash; --supervise)",
    )
    serve_cmd.add_argument(
        "--restart-cap",
        type=float,
        default=8.0,
        help="ceiling on the restart delay, seconds (--supervise)",
    )
    serve_cmd.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        help=(
            "consecutive-crash budget before the supervisor gives up "
            "(0 = unbounded; --supervise)"
        ),
    )

    chaos_cmd = sub.add_parser(
        "chaos",
        help=(
            "SIGKILL a supervised server at random points under load and "
            "verify recovery: digest parity, zero acked-mutation loss, "
            "bounded replay"
        ),
    )
    chaos_cmd.add_argument(
        "scenario", help="chaos scenario JSON (scenarios/chaos_*.json)"
    )
    chaos_cmd.add_argument(
        "--workdir",
        type=str,
        default=None,
        help=(
            "directory for the run's artifacts — log chain, checkpoints, "
            "child output (default: a fresh chaos-<name> directory)"
        ),
    )

    load_cmd = sub.add_parser(
        "serve-load", help="measure a running server with a traffic-model workload"
    )
    _add_endpoint_options(load_cmd)
    load_cmd.add_argument(
        "--model",
        choices=["uniform", "multipath", "realtime"],
        default="uniform",
        help="traffic model generating the lookup pairs",
    )
    load_cmd.add_argument(
        "--lookups", type=int, default=100_000, help="total lookups to issue"
    )
    load_cmd.add_argument(
        "--batch", type=int, default=256, help="lookups per lookup_batch frame"
    )
    load_cmd.add_argument("--seed", type=int, default=0, help="traffic-model seed")
    load_cmd.add_argument(
        "--engine",
        type=str,
        default=None,
        help="deployment label to query (default: the spec's first cell)",
    )
    load_cmd.add_argument(
        "--mutate",
        type=str,
        default=None,
        help=(
            "mutation JSON to enqueue (and commit with a 'step') halfway "
            "through the run, e.g. '{\"kind\": \"leave\", \"nodes\": [5]}'"
        ),
    )
    load_cmd.add_argument(
        "--shutdown",
        action="store_true",
        help="send 'shutdown' to the server after the run",
    )
    load_cmd.add_argument(
        "--output", type=str, default=None, help="write the report as JSON to this path"
    )

    replay_cmd = sub.add_parser(
        "serve-replay",
        help="re-run a serve mutation log and digest-check every served epoch",
    )
    replay_cmd.add_argument("log", help="mutation log (JSONL) written by 'serve --log'")
    replay_cmd.add_argument(
        "--checkpoints",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "start from the checkpoint the current segment resumes from "
            "(bounded-recovery parity) instead of replaying the full "
            "archived chain"
        ),
    )

    trace_cmd = sub.add_parser(
        "trace", help="inspect telemetry traces written by --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize_cmd = trace_sub.add_parser(
        "summarize",
        help="per-phase self-time table (and coverage) of a trace JSONL",
    )
    summarize_cmd.add_argument(
        "trace", help="trace file written by 'run --trace' / 'sweep --trace'"
    )
    summarize_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of the table",
    )
    summarize_cmd.add_argument(
        "--check-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "exit non-zero unless named spans attribute at least this "
            "fraction of the trace's wall-clock (e.g. 0.9)"
        ),
    )

    return parser


def _add_endpoint_options(command: argparse.ArgumentParser) -> None:
    """``--socket PATH`` or ``--host/--port`` (serve and serve-load)."""
    command.add_argument(
        "--socket", type=str, default=None, help="unix socket path to serve/connect on"
    )
    command.add_argument(
        "--host", type=str, default="127.0.0.1", help="TCP host (with --port)"
    )
    command.add_argument(
        "--port", type=int, default=None, help="TCP port to serve/connect on"
    )


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """Apply the CLI overrides the user actually passed onto ``spec``.

    Shared by named-experiment runs (overriding the registered default
    spec) and ``--spec`` runs (overriding the loaded file), so no flag is
    ever silently dropped.
    """
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.k is not None:
        overrides["k_grid"] = args.k
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.br_rounds is not None:
        overrides["br_rounds"] = args.br_rounds
    params = {}
    if args.trials is not None:
        params["trials"] = args.trials
    if args.churn_rates is not None:
        params["churn_rates"] = list(args.churn_rates)
    if args.k and "k" in spec.params:
        # Fixed-k experiments read params["k"]; keep it in sync with --k
        # (an empty --k is left to the k_grid check below).
        params["k"] = int(args.k[0])
    for item in args.param:
        if "=" not in item:
            raise ValidationError(f"--param {item!r} must be KEY=VALUE")
        key, value = item.split("=", 1)
        params[key.strip()] = _parse_param_value(value)
    if params:
        overrides["params"] = params
    spec = spec.override(**overrides)
    spec.validate()
    return spec


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario spec selected by the CLI arguments.

    Starts from the registered default spec of the named experiment and
    applies only the overrides the user actually passed, so every
    experiment keeps its own defaults (sample sizes, churn rates, ...).
    """
    if args.experiment is None:
        raise ValidationError("name an experiment (see 'repro list') or pass --spec")
    return _apply_overrides(resolve(args.experiment).default_spec(), args)


def _load_spec(path: str) -> ScenarioSpec:
    """Load a spec file, folding I/O and parse failures into CLI errors.

    Validation failures keep the spec's field-level message (which names
    the offending field) and gain the file path, so the exit-2 line says
    exactly which field of which file to fix.
    """
    try:
        return ScenarioSpec.load(path)
    except OSError as error:
        raise ValidationError(f"cannot read spec file {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise ValidationError(f"spec file {path!r} is not valid JSON: {error}")
    except ValidationError as error:
        raise ValidationError(f"spec file {path!r}: {error}")


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
        from repro.sweep.dist import corpus_status, format_status

        status = corpus_status(cells, store)
        if args.json:
            print(json.dumps(status.as_dict(), indent=2))
        else:
            for line in format_status(status, corpus, store_dir):
                print(line)
        return 0

    if args.dry_run:
        complete = sum(1 for cell in cells if store.has(cell.key))
        if args.json:
            plan = {
                "corpus": corpus,
                "template": args.template,
                "store": store_dir,
                "total": len(cells),
                "complete": complete,
                "cells": [
                    {
                        "template": cell.template,
                        "index": cell.index,
                        "key": cell.key,
                        "experiment": cell.spec.experiment,
                        "assignment": dict(cell.assignment),
                        "complete": store.has(cell.key),
                    }
                    for cell in cells
                ],
            }
            print(json.dumps(plan, indent=2))
        else:
            print(
                f"# sweep plan {corpus}: {len(cells)} cells "
                f"({complete} complete) -> {store_dir}"
            )
            for cell in cells:
                status = "done" if store.has(cell.key) else "pending"
                print(
                    f"{cell.key[:12]}  {status:>7}  {cell.spec.experiment}  "
                    f"{cell.describe()}"
                )
        return 0

    sweep_options = {}
    if args.lease is not None:
        sweep_options["lease_seconds"] = args.lease
    telemetry_on = bool(args.telemetry or args.trace)
    if telemetry_on:
        telemetry.enable(trace=args.trace)
    try:
        report = run_sweep(
            cells,
            store,
            workers=args.workers,
            resume=args.resume,
            on_cell=lambda cell: print(
                f"# cell {cell.key[:12]} done: {cell.spec.experiment} ({cell.describe()})"
            ),
            **sweep_options,
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
    from repro.sweep.dist import run_worker

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

    worker_options = {}
    if args.lease is not None:
        worker_options["lease_seconds"] = args.lease
    report = run_worker(
        cells,
        store,
        poll_seconds=args.poll,
        max_cells=args.max_cells,
        retry_failed=args.retry_failed,
        wait_timeout=args.timeout,
        on_event=on_event,
        handle_signals=True,
        **worker_options,
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


def _supervised_serve(args: argparse.Namespace) -> int:
    """``serve --supervise``: keep a child server alive with backoff."""
    from repro.serve.supervise import Supervisor, serve_command

    supervisor = Supervisor(
        serve_command(args._argv),
        backoff_base=args.restart_backoff,
        backoff_cap=args.restart_cap,
        max_restarts=args.max_restarts,
    )
    supervisor.install_signal_handlers()
    report = supervisor.run()
    print(f"# {report.summary()}")
    return 0 if not report.gave_up else 1


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: warm up (or recover), bind, serve."""
    from repro.serve.replay import read_log
    from repro.serve.server import run_server
    from repro.serve.service import OverlayService

    if args.supervise:
        return _supervised_serve(args)
    if (args.port is None) == (args.socket is None):
        raise ValidationError("pass exactly one of --port or --socket")
    spec = _load_spec(args.spec)
    # A populated log means a predecessor served here: recover its state
    # (checkpoint + bounded suffix replay) instead of starting over — and
    # skip the warmup, those epochs already happened.  Recovery serves
    # the log's scenario, so --spec must name that one.
    recovering = bool(
        args.log and os.path.exists(args.log) and os.path.getsize(args.log) > 0
    )
    if recovering:
        logged = ScenarioSpec.from_dict(read_log(args.log)[0]["spec"])
        if logged.to_dict() != spec.to_dict():
            raise ValidationError(
                f"--log {args.log!r} was opened with another scenario than "
                f"--spec {args.spec!r}; pass the spec the log was opened with, "
                "or a fresh --log"
            )
    # The serve process always runs with a live metrics registry, so the
    # 'metrics' op and --metrics-port have something to report; tracing
    # stays off (serving is open-ended — there is no file to seal).
    telemetry.enable()
    crash_safety = dict(
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_checkpoints=args.keep_checkpoints,
    )
    if recovering:
        service = OverlayService.recover(args.log, **crash_safety)
        print(service.last_recovery.summary(), flush=True)
    else:
        service = OverlayService(spec, log_path=args.log, **crash_safety)
        for _ in range(max(0, args.warmup_epochs)):
            service.tick()
    spec = service.spec
    print(
        f"# serving {spec.experiment} (n={spec.n}, "
        f"{len(service.session.labels)} deployments, "
        f"{service.session.epochs_completed} epochs committed)"
    )
    server_options = {}
    if args.queue_limit is not None:
        server_options["queue_limit"] = args.queue_limit
    run_server(
        service,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        cadence=args.cadence,
        metrics_port=args.metrics_port,
        announce=lambda address: print(f"# serve listening on {address}", flush=True),
        announce_metrics=lambda address: print(
            f"# serve metrics on {address}", flush=True
        ),
        handle_sigterm=True,
        **server_options,
    )
    print(f"# serve shut down after {service.counters['epochs']} epochs")
    telemetry.disable()
    return 0


def _chaos(args: argparse.Namespace) -> int:
    """The ``chaos`` subcommand: run the harness, print the verdict."""
    from repro.serve.chaos import ChaosScenario, run_chaos

    scenario = ChaosScenario.load(args.scenario)
    workdir = args.workdir
    if workdir is None:
        stem = os.path.splitext(os.path.basename(args.scenario))[0]
        workdir = f"{stem}-workdir"
    print(
        f"# chaos: {scenario.epochs} epochs, {scenario.kills} SIGKILLs, "
        f"checkpoint every {scenario.checkpoint_every}; artifacts in {workdir}"
    )
    report = run_chaos(scenario, workdir)
    for line in report.recovery_lines:
        print(f"# {line}")
    print(report.summary())
    if not report.ok:
        print(
            "error: the chaos run lost acknowledged state or diverged from "
            f"the uninterrupted reference (artifacts in {workdir})",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_load(args: argparse.Namespace) -> int:
    """The ``serve-load`` subcommand: drive a server, print the summary."""
    from repro.serve.load import format_summary, run_load, write_report

    if (args.port is None) == (args.socket is None):
        raise ValidationError("pass exactly one of --port or --socket")
    mutate = None
    if args.mutate is not None:
        try:
            mutate = json.loads(args.mutate)
        except json.JSONDecodeError as error:
            raise ValidationError(f"--mutate is not valid JSON: {error}")
    report = run_load(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        model=args.model,
        lookups=args.lookups,
        batch_size=args.batch,
        seed=args.seed,
        engine=args.engine,
        mutate=mutate,
        shutdown=args.shutdown,
    )
    print(format_summary(report))
    if args.output:
        write_report(report, args.output)
        print(f"# load report written to {args.output}")
    return 0


def _trace_summarize(args: argparse.Namespace) -> int:
    """The ``trace summarize`` subcommand: per-phase table or JSON."""
    from repro.telemetry.summarize import format_summary, read_trace, summarize

    trace = read_trace(args.trace)
    summary = summarize(trace)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary))
    if args.check_coverage is not None:
        coverage = float(summary["coverage"])
        if coverage < args.check_coverage:
            print(
                f"error: trace attributes {coverage:.1%} of wall-clock to "
                f"named spans, below the required {args.check_coverage:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


def _serve_replay(args: argparse.Namespace) -> int:
    """The ``serve-replay`` subcommand: digest-check a mutation log."""
    from repro.serve.replay import replay_log

    result = replay_log(args.log, checkpoint_dir=args.checkpoints)
    print(result.summary())
    if not result.ok:
        for mismatch in result.mismatches:
            print(
                f"# epoch {mismatch['epoch']}: served {mismatch['served']} "
                f"!= replayed {mismatch['replayed']}",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The supervisor re-execs this invocation minus its own flags.
    args._argv = list(argv) if argv is not None else sys.argv[1:]

    try:
        if args.command == "serve":
            return _serve(args)

        if args.command == "chaos":
            return _chaos(args)

        if args.command == "serve-load":
            return _serve_load(args)

        if args.command == "serve-replay":
            return _serve_replay(args)

        if args.command == "trace":
            return _trace_summarize(args)

        if args.command == "list":
            names = scenario_names()
            if args.json:
                entries = []
                for name in names:
                    definition = resolve(name)
                    entries.append(
                        {
                            "name": name,
                            "help": definition.help,
                            "default_spec": definition.default_spec().to_dict(),
                            "smoke_args": list(definition.smoke_args),
                        }
                    )
                print(json.dumps(entries, indent=2))
                return 0
            width = max(len(name) for name in names)
            for name in names:
                print(f"{name:<{width}}  {resolve(name).help}")
            return 0

        if args.command == "sweep":
            return _sweep(args)

        if args.command == "sweep-worker":
            return _sweep_worker(args)

        if args.command == "spec":
            spec = _spec_from_args(args)
            text = spec.to_json()
            if args.output:
                with open(args.output, "w") as handle:
                    handle.write(text + "\n")
                print(f"# scenario spec written to {args.output}")
            else:
                print(text)
            return 0

        # run
        if getattr(args, "spec", None):
            if args.experiment is not None:
                raise ValidationError("--spec replaces the experiment name; pass only one")
            spec = _apply_overrides(_load_spec(args.spec), args)
        else:
            spec = _spec_from_args(args)
        trace_to = getattr(args, "trace", None)
        if trace_to is not None:
            telemetry.enable(trace=trace_to)
        telemetry_line = None
        try:
            session = SimulationSession(spec)
            with telemetry.span("run", experiment=spec.experiment):
                result = session.run()
        finally:
            if trace_to is not None:
                telemetry_line = telemetry.summary_line()
                telemetry.disable()
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"# {result.figure}: {result.description}")
    print(result.table())
    if telemetry_line is not None:
        print(f"# {telemetry_line}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"# full result written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
