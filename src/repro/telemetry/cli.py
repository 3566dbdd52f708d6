"""The ``trace summarize`` verb (see ``docs/observability.md``).

``trace summarize`` turns a trace into a per-phase self-time table and
can gate on attribution coverage (``--check-coverage 0.9``).
"""

from __future__ import annotations

import argparse
import json
import sys


def register(sub) -> None:
    """Add ``trace`` (with its ``summarize`` subcommand)."""
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
    summarize_cmd.set_defaults(handler=_trace_summarize)


def _trace_summarize(args: argparse.Namespace) -> int:
    """The ``trace summarize`` subcommand: per-phase table or JSON."""
    from repro.telemetry.summarize import format_summary, read_trace, summarize

    summary = summarize(read_trace(args.trace))
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
