"""The serve workload generator: millions of lookups against a live server.

``repro serve-load`` drives a running ``repro serve`` instance with one
of three traffic models and reports sustained lookup throughput plus
p50/p95/p99 per-lookup latency:

* ``uniform`` — independent uniform source/target pairs;
* ``multipath`` — Section 6.1 transfers via
  :func:`repro.apps.multipath.session_lookup_pairs` (popularity-skewed
  targets, 1–4 lookups per session);
* ``realtime`` — Section 6.2 streams via
  :func:`repro.apps.realtime.stream_lookup_pairs` (``copies`` redundant
  probes plus a reverse feedback probe per stream).

Lookups ship in ``lookup_batch`` frames; latency is the per-batch
round-trip divided across its lookups, which is the per-lookup service
time the overlay's clients would observe when pipelining.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.multipath import session_lookup_pairs
from repro.apps.realtime import stream_lookup_pairs
from repro.serve.client import ServeClient
from repro.util.rng import as_generator
from repro.util.stats import percentile
from repro.util.validation import ValidationError

#: Traffic models ``--model`` may name.
TRAFFIC_MODELS = ("uniform", "multipath", "realtime")


@dataclass
class LoadReport:
    """What one serve-load run measured."""

    model: str
    lookups: int
    batches: int
    batch_size: int
    seconds: float
    throughput: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    errors: int
    unreachable: int
    mutations: int
    engine: str
    epoch: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "lookups": self.lookups,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "errors": self.errors,
            "unreachable": self.unreachable,
            "mutations": self.mutations,
            "engine": self.engine,
            "epoch": self.epoch,
        }


def generate_pairs(
    model: str, n: int, lookups: int, rng
) -> List[Tuple[int, int]]:
    """At least ``lookups`` source/target pairs under a traffic model."""
    if model not in TRAFFIC_MODELS:
        raise ValidationError(
            f"unknown traffic model {model!r}; expected one of {list(TRAFFIC_MODELS)}"
        )
    if model == "uniform":
        pairs = []
        while len(pairs) < lookups:
            src = int(rng.integers(n))
            dst = int(rng.integers(n - 1))
            if dst >= src:
                dst += 1
            pairs.append((src, dst))
        return pairs
    pairs = []
    while len(pairs) < lookups:
        if model == "multipath":
            # ~2.5 lookups per session on average.
            sessions = max(1, (lookups - len(pairs)) // 2)
            pairs.extend(session_lookup_pairs(n, sessions=sessions, rng=rng))
        else:
            streams = max(1, (lookups - len(pairs)) // 4)
            pairs.extend(stream_lookup_pairs(n, streams=streams, rng=rng))
    return pairs[:lookups]


def run_load(
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    socket_path: Optional[str] = None,
    model: str = "uniform",
    lookups: int = 100_000,
    batch_size: int = 256,
    seed: int = 0,
    engine: Optional[str] = None,
    mutate: Optional[Dict[str, object]] = None,
    step_after_mutate: bool = True,
    shutdown: bool = False,
) -> LoadReport:
    """Drive a running server and measure it.

    With ``mutate`` set, the mutation is enqueued roughly halfway through
    the run and (by default) committed with a ``step`` — so the workload
    spans a live overlay change, which is the point of the service.
    A server that cannot be reached is a :class:`ValidationError`
    naming the address.
    """
    if lookups < 1:
        raise ValidationError("lookups must be at least 1")
    if batch_size < 1:
        raise ValidationError("batch_size must be at least 1")
    rng = as_generator(seed)
    try:
        client = ServeClient(host=host, port=port, socket_path=socket_path)
    except OSError as error:
        address = socket_path if socket_path is not None else f"{host}:{port}"
        raise ValidationError(f"cannot connect to {address}: {error}") from error
    try:
        snapshot = client.snapshot()
        n = int(snapshot["scenario"]["n"])
        pairs = generate_pairs(model, n, int(lookups), rng)
        batches = [
            pairs[start : start + batch_size]
            for start in range(0, len(pairs), batch_size)
        ]
        mutate_at = len(batches) // 2 if mutate is not None else -1
        latencies_ms: List[float] = []
        errors = 0
        unreachable = 0
        mutations = 0
        last_epoch = -1
        started = time.perf_counter()
        for index, batch in enumerate(batches):
            if index == mutate_at:
                client.mutate(mutate)
                mutations += 1
                if step_after_mutate:
                    client.step()
            sent = time.perf_counter()
            try:
                reply = client.lookup_batch(batch, engine=engine)
            except ValidationError:
                errors += len(batch)
                continue
            elapsed_ms = (time.perf_counter() - sent) * 1000.0
            latencies_ms.extend([elapsed_ms / len(batch)] * len(batch))
            values = reply["values"]
            unreachable += sum(1 for value in values if value is None)
            last_epoch = int(reply["epoch"])
        seconds = time.perf_counter() - started
        served = len(latencies_ms)
        report = LoadReport(
            model=model,
            lookups=served,
            batches=len(batches),
            batch_size=int(batch_size),
            seconds=seconds,
            throughput=served / seconds if seconds > 0 else float("inf"),
            p50_ms=percentile(latencies_ms, 50) if latencies_ms else float("nan"),
            p95_ms=percentile(latencies_ms, 95) if latencies_ms else float("nan"),
            p99_ms=percentile(latencies_ms, 99) if latencies_ms else float("nan"),
            errors=errors,
            unreachable=unreachable,
            mutations=mutations,
            engine=str(reply["engine"]) if served else "",
            epoch=last_epoch,
        )
        if shutdown:
            client.shutdown()
        return report
    finally:
        client.close()


def format_summary(report: LoadReport) -> str:
    """The machine-greppable one-liner CI latches onto."""
    return (
        f"SERVE total={report.lookups} batches={report.batches} "
        f"thru={report.throughput:.0f}/s "
        f"p50={report.p50_ms:.4f}ms p95={report.p95_ms:.4f}ms "
        f"p99={report.p99_ms:.4f}ms "
        f"model={report.model} mutations={report.mutations} "
        f"errors={report.errors}"
    )


def write_report(report: LoadReport, path: str) -> None:
    """Persist the report as JSON (for tracking across runs)."""
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "LoadReport",
    "TRAFFIC_MODELS",
    "format_summary",
    "generate_pairs",
    "run_load",
    "write_report",
]
