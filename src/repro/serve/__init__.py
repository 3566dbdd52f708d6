"""``repro serve``: the live overlay service.

The batch pipeline answers "what does this scenario converge to"; this
package answers "what is the overlay doing *right now*".  It holds a
:class:`~repro.scenario.lifecycle.Session` live, advances epochs on a
cadence (or on explicit ``step`` requests), and speaks a
newline-delimited JSON protocol over a local socket:

* :mod:`~repro.serve.protocol` — the wire format (ops, framing, errors);
* :mod:`~repro.serve.service` — the synchronous core: version-stamped
  route lookups read from the committed epoch's route matrix (each
  served value's JSON token built once per epoch), mutation queueing,
  and idempotent mutation/step handling;
* :mod:`~repro.serve.durable` — the service's durable state: the
  replayable JSONL mutation log and its segment headers, periodic
  checkpoints and their retention, the dedupe and epoch-digest windows,
  and crash recovery (``OverlayService.recover``);
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
  proving zero acknowledged loss and digest parity under crashes;
* :mod:`~repro.serve.cli` — the ``serve``, ``chaos``, ``serve-load`` and
  ``serve-replay`` verbs.

The package re-exports nothing, so importing a submodule (the CLI loads
:mod:`~repro.serve.cli`) does not load the asyncio/orjson stack.

The service is a scheduler around the existing epoch kernels, never a
second engine: everything it serves is reproducible offline from its
mutation log.
"""
