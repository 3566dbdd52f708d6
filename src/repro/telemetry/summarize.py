"""Per-phase summarisation of a JSONL trace — `repro trace summarize`.

Rebuilds span nesting from ``(ts, dur)`` interval containment and
attributes every traced moment to exactly one phase via **self time**
(a span's duration minus its children's durations), so the per-phase
totals sum to the traced wall-clock with no double counting.  The
``coverage`` figure — the fraction of the trace's wall-clock span lying
inside any top-level span — is the CI gate's "phase totals cover >90%
of wall-clock" number.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Union

from repro.telemetry.trace import TRACE_SCHEMA_VERSION
from repro.util.validation import ValidationError

#: Interval-containment slack for float start/end comparisons.
_EPS = 1e-9


def read_trace(source: Union[str, Iterable[str]]) -> Dict[str, object]:
    """Parse a trace (path or iterable of JSONL lines) into its records.

    Returns ``{"header": ..., "spans": [...], "events": [...],
    "end": ...}``; a missing footer (a crashed producer) is tolerated,
    a malformed line or unknown schema is not.
    """
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as error:
            raise ValidationError(f"cannot read trace {source!r}: {error}")
    else:
        lines = list(source)
    header = None
    end = None
    spans: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValidationError(f"trace line {lineno} is not valid JSON: {error}")
        if not isinstance(record, dict):
            raise ValidationError(f"trace line {lineno} is not an object")
        kind = record.get("kind")
        if kind == "begin":
            schema = record.get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                raise ValidationError(
                    f"unsupported trace schema {schema!r} "
                    f"(this build reads schema {TRACE_SCHEMA_VERSION})"
                )
            header = record
        elif kind == "span":
            spans.append(record)
        elif kind == "event":
            events.append(record)
        elif kind == "end":
            end = record
        else:
            raise ValidationError(f"trace line {lineno} has unknown kind {kind!r}")
    if header is None:
        raise ValidationError("trace has no begin record (not a trace file?)")
    if end is not None and (
        end.get("spans") != len(spans) or end.get("events") != len(events)
    ):
        raise ValidationError(
            "trace footer disagrees with its body: "
            f"footer says spans={end.get('spans')} events={end.get('events')}, "
            f"body has spans={len(spans)} events={len(events)}"
        )
    return {"header": header, "spans": spans, "events": events, "end": end}


def summarize(trace: Dict[str, object]) -> Dict[str, object]:
    """Aggregate a parsed trace into the per-phase time table."""
    spans = list(trace["spans"])
    events = list(trace["events"])
    if not spans and not events:
        return {
            "wall": 0.0,
            "coverage": 0.0,
            "spans": 0,
            "events": 0,
            "phases": [],
            "events_by_name": {},
        }
    stamps = [float(s["ts"]) for s in spans] + [float(e["ts"]) for e in events]
    ends = [float(s["ts"]) + float(s["dur"]) for s in spans] or stamps
    wall = max(max(ends), max(stamps)) - min(stamps)

    # Self-time attribution: process spans in start order with a stack
    # of currently-open intervals; a span not contained by the stack top
    # closes it (its self time is its duration minus its children's).
    ordered = sorted(
        spans,
        key=lambda s: (float(s["ts"]), -float(s["dur"]), int(s.get("depth", 0))),
    )
    totals: Dict[str, Dict[str, float]] = {}
    stack: List[List[object]] = []  # [record, child_sum]
    top_level = 0.0

    def account(record: Dict[str, object], child_sum: float) -> None:
        name = str(record["name"])
        phase = totals.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        phase["count"] += 1
        phase["total"] += float(record["dur"])
        phase["self"] += max(0.0, float(record["dur"]) - child_sum)

    def contains(outer: Dict[str, object], inner: Dict[str, object]) -> bool:
        o_start, o_end = float(outer["ts"]), float(outer["ts"]) + float(outer["dur"])
        i_start, i_end = float(inner["ts"]), float(inner["ts"]) + float(inner["dur"])
        return o_start - _EPS <= i_start and i_end <= o_end + _EPS

    def pop() -> None:
        record, child_sum = stack.pop()
        account(record, child_sum)
        if stack:
            stack[-1][1] += float(record["dur"])

    for span in ordered:
        while stack and not contains(stack[-1][0], span):
            pop()
        if not stack:
            top_level += float(span["dur"])
        stack.append([span, 0.0])
    while stack:
        pop()

    coverage = min(1.0, top_level / wall) if wall > 0 else 0.0
    phases = [
        {
            "name": name,
            "count": int(data["count"]),
            "total": data["total"],
            "self": data["self"],
            "pct": (data["self"] / wall * 100.0) if wall > 0 else 0.0,
        }
        for name, data in totals.items()
    ]
    phases.sort(key=lambda p: (-p["self"], p["name"]))
    events_by_name: Dict[str, int] = {}
    for event in events:
        name = str(event["name"])
        events_by_name[name] = events_by_name.get(name, 0) + 1
    return {
        "wall": wall,
        "coverage": coverage,
        "spans": len(spans),
        "events": len(events),
        "phases": phases,
        "events_by_name": dict(sorted(events_by_name.items())),
    }


def format_summary(summary: Dict[str, object]) -> str:
    """The human table: one row per phase, self-time-ranked, plus footer."""
    lines = [
        f"{'phase':<32} {'count':>7} {'total s':>10} {'self s':>10} {'% wall':>7}"
    ]
    for phase in summary["phases"]:
        lines.append(
            f"{phase['name']:<32} {phase['count']:>7d} "
            f"{phase['total']:>10.4f} {phase['self']:>10.4f} "
            f"{phase['pct']:>6.1f}%"
        )
    lines.append(
        f"TRACE wall={summary['wall']:.4f}s "
        f"coverage={summary['coverage'] * 100.0:.1f}% "
        f"spans={summary['spans']} events={summary['events']}"
    )
    return "\n".join(lines)


__all__ = ["format_summary", "read_trace", "summarize"]
