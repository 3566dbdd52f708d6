"""``repro serve``: the live overlay service.

The batch pipeline answers "what does this scenario converge to"; this
package answers "what is the overlay doing *right now*".  It holds a
:class:`~repro.scenario.lifecycle.Session` live, advances epochs on a
cadence (or on explicit ``step`` requests), and speaks a
newline-delimited JSON protocol over a local socket:

* :mod:`~repro.serve.protocol` — the wire format (ops, framing, errors);
* :mod:`~repro.serve.service` — the synchronous core: version-stamped
  route lookups read from the committed epoch's route matrix (each
  served value's JSON token built once per epoch), mutation queueing, the
  replayable JSONL mutation log, idempotent mutation/step handling, and
  crash recovery (``OverlayService.recover``);
* :mod:`~repro.serve.oplog` — segmented crash-tolerant log I/O
  (fsynced appends, checkpoint-anchored rotation, torn-tail repair);
* :mod:`~repro.serve.checkpoint` — atomic digest-verified session
  snapshots;
* :mod:`~repro.serve.server` — the asyncio transport, with bounded
  request admission (``busy`` shedding) and graceful SIGTERM drain;
* :mod:`~repro.serve.client` — a blocking client with backoff+jitter
  retries, idempotency keys, and per-request deadlines;
* :mod:`~repro.serve.supervise` — the ``--supervise`` restart loop;
* :mod:`~repro.serve.load` — the million-lookup workload generator
  (``repro serve-load``);
* :mod:`~repro.serve.replay` — the log's one reader: byte-identical
  log(-chain) replay through the batch engine (``repro serve-replay``),
  whose fold recovery runs too;
* :mod:`~repro.serve.chaos` — the ``repro chaos`` SIGKILL harness
  proving zero acknowledged loss and digest parity under crashes.

The service is a scheduler around the existing epoch kernels, never a
second engine: everything it serves is reproducible offline from its
mutation log.
"""

from repro.serve.chaos import ChaosReport, ChaosScenario, run_chaos
from repro.serve.checkpoint import CheckpointManager, CheckpointState
from repro.serve.client import RetryBudgetExceeded, ServeClient
from repro.serve.load import LoadReport, TRAFFIC_MODELS, format_summary, run_load
from repro.serve.oplog import LogWriter, read_segment
from repro.serve.protocol import OPS, PROTOCOL_VERSION, ProtocolError
from repro.serve.replay import ReplayResult, replay_log
from repro.serve.server import OverlayServer, run_server, start_background_server
from repro.serve.service import (
    LOG_SCHEMA_VERSION,
    OverlayService,
    RecoveryError,
    RecoveryReport,
    ServeError,
)
from repro.serve.supervise import Supervisor, SupervisorReport

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "CheckpointManager",
    "CheckpointState",
    "LOG_SCHEMA_VERSION",
    "LoadReport",
    "LogWriter",
    "OPS",
    "OverlayServer",
    "OverlayService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecoveryError",
    "RecoveryReport",
    "ReplayResult",
    "RetryBudgetExceeded",
    "ServeClient",
    "ServeError",
    "Supervisor",
    "SupervisorReport",
    "TRAFFIC_MODELS",
    "format_summary",
    "read_segment",
    "replay_log",
    "run_chaos",
    "run_load",
    "run_server",
    "start_background_server",
]
