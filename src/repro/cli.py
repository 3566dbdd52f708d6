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

This module is only the dispatcher.  Each subsystem owns its verbs —
flags, help and handler — in the ``register(subparsers)`` of one of
:data:`VERB_MODULES`; :func:`main` runs the chosen handler and turns a
:class:`~repro.util.validation.ValidationError` into ``error: ...`` and
exit code 2.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence

from repro.util.validation import ValidationError

#: The modules that register verbs, in ``repro --help`` order.  They are
#: imported when the parser is built, so importing this module stays
#: free of every subsystem.
VERB_MODULES = (
    "repro.scenario.cli",
    "repro.sweep.cli",
    "repro.serve.cli",
    "repro.telemetry.cli",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'EGOIST: Overlay Routing using Selfish Neighbor Selection'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in VERB_MODULES:
        importlib.import_module(name).register(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # The supervisor re-execs this invocation minus its own flags.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.handler(args)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
