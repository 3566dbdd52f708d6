"""Content-addressed on-disk store of finished sweep cells.

Every finished cell is one JSON file named by the cell's spec hash
(:func:`repro.sweep.template.spec_key`), holding the spec as provenance
next to the result::

    <root>/<key>.json = {"key": ..., "spec": {...}, "result": {...}}

Writes are atomic (temp file + rename), so a sweep killed mid-write
never leaves a truncated cell behind — which is what makes ``--resume``
sound: a key either resolves to a complete result or is re-executed.
Content addressing also makes the store worker-safe and idempotent:
re-running a cell overwrites it with identical bytes.

All I/O flows through a pluggable :class:`~repro.sweep.dist.backend
.StoreBackend` (``local`` directory, or ``shared-fs`` for NFS-style
mounts — pass ``SweepStore("shared-fs:/mnt/sweeps/run1")``), which is
what lets N hosts share one store: together with the claim protocol in
:mod:`repro.sweep.dist.claims` the store becomes a coordinator-free
multi-host work queue.  Temp files are qualified by *host and pid*
(``.<key>.<host>.<pid>.tmp``) because a pid alone is meaningless on a
shared filesystem — host A's pid 4242 may be alive on host B.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional

from repro.sweep.dist.backend import StoreBackend, parse_backend
from repro.sweep.dist.claims import local_host
from repro.util.durable_io import pid_alive
from repro.util.validation import ValidationError

_KEY_PATTERN = re.compile(r"^[0-9a-f]{32}$")

#: Host-and-pid-qualified temp names: ``.<key>.<host>.<pid>.tmp``.
_TMP_PATTERN = re.compile(r"^\.([0-9a-f]{32})\.([A-Za-z0-9_-]+)\.(\d+)\.tmp$")


class SweepStore:
    """Directory of ``<spec-hash>.json`` cell files (on any backend)."""

    def __init__(self, root: str, backend: Optional[StoreBackend] = None):
        # The directory is created lazily on first put(), so read-only
        # consumers (the --dry-run planner) leave no trace on disk.
        self.backend = backend if backend is not None else parse_backend(str(root))
        self.root = self.backend.root

    def path_for(self, key: str) -> str:
        """The cell file path for ``key``."""
        if not _KEY_PATTERN.match(key):
            raise ValidationError(f"malformed sweep store key {key!r}")
        return self.backend.path(f"{key}.json")

    def has(self, key: str) -> bool:
        """Whether a completed cell with this key is stored."""
        return os.path.exists(self.path_for(key))

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored cell document, or None when absent."""
        path = self.path_for(key)
        text = self.backend.read_text(f"{key}.json")
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"sweep store cell {path!r} is corrupt ({error}); delete it "
                "and re-run the sweep to regenerate the cell"
            ) from error

    def put(
        self,
        key: str,
        spec: Dict[str, object],
        result: Dict[str, object],
    ) -> str:
        """Atomically persist one finished cell; returns its path."""
        path = self.path_for(key)
        document = {"key": key, "spec": spec, "result": result}
        text = json.dumps(document, indent=2) + "\n"
        tmp_rel = f".{key}.{local_host()}.{os.getpid()}.tmp"
        self.backend.write_atomic(f"{key}.json", text, tmp_rel)
        return path

    def purge_stale_tmp(self) -> List[str]:
        """Remove this host's orphaned temp files; returns their names.

        A sweep killed between opening a temp file and the atomic rename
        leaves ``.<key>.<host>.<pid>.tmp`` behind forever.  Only temp
        files whose recorded *host matches the local host* are liveness-
        checked and purged: on a shared filesystem a foreign host's pid
        cannot be probed locally (its live pid 4242 may look dead — or
        worse, alias an unrelated local process), so foreign temp files
        are always left for their own host's next sweep to reclaim.
        Temp files owned by a live local pid — a concurrent sweep
        mid-write — are left alone too.
        """
        removed: List[str] = []
        own_host = local_host()
        for entry in self.backend.listdir():
            match = _TMP_PATTERN.match(entry)
            if match is None:
                continue
            host, pid = match.group(2), int(match.group(3))
            if host != own_host:
                continue
            if pid_alive(pid):
                continue
            if self.backend.unlink(entry):
                removed.append(entry)
        return sorted(removed)

    def keys(self) -> List[str]:
        """Keys of every stored cell, sorted."""
        keys = []
        for entry in self.backend.listdir():
            name, ext = os.path.splitext(entry)
            if ext == ".json" and _KEY_PATTERN.match(name):
                keys.append(name)
        return sorted(keys)

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepStore(root={self.root!r}, cells={len(self)}, "
            f"backend={self.backend.name!r})"
        )
