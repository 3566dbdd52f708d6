"""The ``list``, ``run`` and ``spec`` verbs: the scenario registry's CLI.

``run`` builds the named experiment's default
:class:`~repro.scenario.spec.ScenarioSpec`, applies the command-line
overrides, executes it through a
:class:`~repro.scenario.session.SimulationSession`, prints the series as
a tab-separated table, and optionally writes the full result as JSON.
``--spec`` loads a previously saved spec instead — re-running a saved
spec reproduces the exact same result.  ``run --trace out.jsonl``
records a span-level JSONL trace of the run and prints a greppable
``# TELEMETRY spans=... events=...`` line; records are byte-identical
with the trace on or off.

``spec`` writes the would-be-executed spec as JSON without running it.
"""

from __future__ import annotations

import argparse
import json

from repro.scenario.registry import resolve, scenario_names
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
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


def register(sub) -> None:
    """Add ``list``, ``run`` and ``spec`` to the CLI's subparsers."""
    list_cmd = sub.add_parser("list", help="list the available experiments")
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable registry dump (name, help, default spec, "
            "smoke args), deterministically ordered by name"
        ),
    )
    list_cmd.set_defaults(handler=_list)

    run = sub.add_parser("run", help="run one experiment and print its series")
    _add_run_options(run, with_run_outputs=True)
    run.set_defaults(handler=_run)

    spec_cmd = sub.add_parser(
        "spec", help="print (or save) an experiment's ScenarioSpec as JSON"
    )
    _add_run_options(spec_cmd, with_run_outputs=False)
    spec_cmd.set_defaults(handler=_spec)


def _add_run_options(command: argparse.ArgumentParser, *, with_run_outputs: bool):
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


def _list(args: argparse.Namespace) -> int:
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


def _spec(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.output:
        spec.save(args.output)
        print(f"# scenario spec written to {args.output}")
    else:
        print(spec.to_json())
    return 0


def _run(args: argparse.Namespace) -> int:
    if args.spec:
        if args.experiment is not None:
            raise ValidationError("--spec replaces the experiment name; pass only one")
        spec = _apply_overrides(ScenarioSpec.load(args.spec), args)
    else:
        spec = _spec_from_args(args)
    if args.trace is not None:
        telemetry.enable(trace=args.trace)
    telemetry_line = None
    try:
        session = SimulationSession(spec)
        with telemetry.span("run", experiment=spec.experiment):
            result = session.run()
    finally:
        if args.trace is not None:
            telemetry_line = telemetry.summary_line()
            telemetry.disable()
    print(f"# {result.figure}: {result.description}")
    print(result.table())
    if telemetry_line is not None:
        print(f"# {telemetry_line}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"# full result written to {args.output}")
    return 0
