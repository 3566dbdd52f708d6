"""The ``serve``, ``chaos``, ``serve-load`` and ``serve-replay`` verbs.

``serve`` holds a spec's deployments live behind a local socket (see
:mod:`repro.serve`); on a populated ``--log`` it recovers its
predecessor's state instead of starting over, ``--supervise`` keeps it
alive across crashes, and ``--metrics-port`` exposes the live telemetry
registry as a Prometheus text endpoint.  ``chaos`` SIGKILLs a supervised
server at random points under load and checks the recovery verdict.
``serve-load`` measures a running server with a traffic-model workload,
and ``serve-replay`` re-runs a server's mutation log through the batch
engine and digest-checks every served epoch.

Only the parsers load with this module: each handler imports the serve
stack (asyncio, orjson) it needs, so the other verbs never pay for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.scenario.spec import ScenarioSpec
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def register(sub) -> None:
    """Add ``serve``, ``chaos``, ``serve-load`` and ``serve-replay``."""
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
            "connections the server may hold with unread replies (their "
            "transport paused for writing); while that many are held, other "
            "connections' requests get an immediate retryable 'busy' error "
            "(default 1024)"
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
    serve_cmd.set_defaults(handler=_serve)

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
    chaos_cmd.set_defaults(handler=_chaos)

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
    load_cmd.set_defaults(handler=_serve_load)

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
    replay_cmd.set_defaults(handler=_serve_replay)


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


def _check_endpoint(args: argparse.Namespace) -> None:
    if (args.port is None) == (args.socket is None):
        raise ValidationError("pass exactly one of --port or --socket")


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
    _check_endpoint(args)
    spec = ScenarioSpec.load(args.spec)
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

    _check_endpoint(args)
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
