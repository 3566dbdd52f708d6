"""Distributed sweep execution: N hosts drain one store, no coordinator.

The single-host sweep (PR 4) already had the hard part of a distributed
runner: a content-addressed, write-once, atomically-written
:class:`~repro.sweep.store.SweepStore` whose cells are byte-deterministic
pure functions of their specs.  This package adds the remaining three
pieces:

* :mod:`repro.sweep.dist.backend` — a pluggable :class:`StoreBackend`
  (``local`` directory, ``shared-fs`` for NFS-style mounts with
  fsync-on-commit) behind the store and the claim files;
* :mod:`repro.sweep.dist.claims` — the coordinator-free work-claiming
  protocol: ``O_EXCL`` claim files carrying ``{host, pid, started,
  lease_expiry}``, heartbeat renewal, and rename-based reclamation of
  expired leases, plus done/failed side records (the failure record
  carries the full traceback);
* :mod:`repro.sweep.dist.worker` / :mod:`repro.sweep.dist.status` — the
  ``repro sweep-worker`` drain loop and the ``repro sweep --status``
  progress view (done/claimed/orphaned/failed/pending, per-host
  throughput).

Point any number of ``repro sweep-worker TEMPLATE --store DIR``
processes — across any number of hosts sharing ``DIR`` — at one corpus
and they drain it together; ``--resume`` semantics come for free from
the content-addressed store.
"""

from repro.sweep.dist.backend import (
    BACKENDS,
    LocalBackend,
    SharedFSBackend,
    StoreBackend,
    parse_backend,
)
from repro.sweep.dist.claims import (
    ClaimLost,
    ClaimRecord,
    ClaimStore,
    local_host,
)
from repro.sweep.dist.status import (
    HostThroughput,
    corpus_status,
    format_status,
)
from repro.sweep.dist.worker import (
    CellFailure,
    WorkerReport,
    run_worker,
)

__all__ = [
    "BACKENDS",
    "CellFailure",
    "ClaimLost",
    "ClaimRecord",
    "ClaimStore",
    "HostThroughput",
    "LocalBackend",
    "SharedFSBackend",
    "StoreBackend",
    "WorkerReport",
    "corpus_status",
    "format_status",
    "local_host",
    "parse_backend",
    "run_worker",
]
