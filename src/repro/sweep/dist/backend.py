"""Pluggable filesystem backends behind the sweep store and claims.

A :class:`StoreBackend` is the narrow I/O surface the distributed sweep
layer needs — atomic writes, exclusive creates, renames, listings — over
*relative* paths inside one store root.  Two backends ship today:

* ``local`` — a plain directory on a local filesystem (the default, and
  exactly what the single-host sweep has always used);
* ``shared-fs`` — the same directory layout on an NFS-style shared
  mount.  It adds ``fsync`` of both the file and its directory around
  every atomic write and exclusive create, so a cell (or claim) another
  host observes is durably the bytes that were written, not a
  client-cache mirage (the S-Bus stale-read hazards).  It assumes the
  mount supports atomic ``O_CREAT|O_EXCL`` (NFSv4, or v3 with working
  exclusive-create emulation) and atomic same-directory ``rename``.

Backends are named in store specs: ``--store shared-fs:/mnt/sweeps/run1``
selects the shared-fs backend; a bare path (or ``local:PATH``) selects
the local one.  Every mutation the claim protocol relies on maps to a
single POSIX operation (``O_EXCL`` create, ``rename``, ``unlink``), so
correctness never depends on read-modify-write cycles being atomic.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Type

from repro.util.durable_io import fsync_dir, write_atomic
from repro.util.validation import ValidationError

#: Per-process sequence making exclusive-create temp names unique even
#: across threads racing on the same target (itertools.count is atomic
#: under the GIL).
_CREATE_SEQ = itertools.count()


class StoreBackend:
    """Filesystem primitives over relative paths inside one store root."""

    #: Registry name; also the prefix accepted by :func:`parse_backend`.
    name = "local"

    def __init__(self, root: str):
        self.root = str(root)

    # ------------------------------------------------------------------ #
    # Paths and listings
    # ------------------------------------------------------------------ #
    def path(self, rel: str) -> str:
        """Absolute path of ``rel`` inside the store root."""
        return os.path.join(self.root, rel)

    def listdir(self, rel_dir: str = "") -> List[str]:
        """Entries of ``rel_dir``, sorted; empty when the dir is absent."""
        try:
            return sorted(os.listdir(self.path(rel_dir) if rel_dir else self.root))
        except FileNotFoundError:
            return []

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_text(self, rel: str) -> Optional[str]:
        """The file's text, or None when it does not exist."""
        try:
            with open(self.path(rel)) as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    # ------------------------------------------------------------------ #
    # Writes (each a single atomic POSIX operation at the commit point)
    # ------------------------------------------------------------------ #
    def write_atomic(self, rel: str, text: str, tmp_rel: str) -> None:
        """Write ``text`` to ``tmp_rel`` and atomically rename onto ``rel``.

        ``tmp_rel`` must live in the same directory as ``rel`` (the
        caller names it — the store's host-qualified temp scheme), so the
        rename never crosses filesystems.
        """
        tmp = self.path(tmp_rel)
        os.makedirs(os.path.dirname(tmp) or self.root, exist_ok=True)
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, self.path(rel))

    def create_exclusive(self, rel: str, text: str) -> bool:
        """Atomically create ``rel`` with ``text``; False when it exists.

        This is the claim-protocol primitive: exactly one of any number
        of concurrent creators wins.  The content is written to a
        private temp file first and committed with :func:`os.link`, so
        the file appears *with its full content* in one atomic step — a
        reader can never observe a created-but-empty claim.  (Hard-link
        creation also fails over NFS when the target exists, which is
        why it is the classic portable exclusive-create.)
        """
        path = self.path(rel)
        directory = os.path.dirname(path) or self.root
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory,
            f".{os.path.basename(path)}.{os.getpid()}.{next(_CREATE_SEQ)}.create",
        )
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            self._sync_handle(handle)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        self._sync_dir(directory)
        return True

    def rename(self, src_rel: str, dst_rel: str) -> bool:
        """Atomically rename ``src_rel`` to ``dst_rel``; False when gone.

        Used for claim takeover: of N workers racing to rename one
        expired claim to their own unique name, exactly one succeeds and
        the rest see ``FileNotFoundError``.
        """
        try:
            os.rename(self.path(src_rel), self.path(dst_rel))
        except FileNotFoundError:
            return False
        self._sync_dir(os.path.dirname(self.path(dst_rel)))
        return True

    def unlink(self, rel: str) -> bool:
        """Remove ``rel``; False when it was already gone."""
        try:
            os.unlink(self.path(rel))
        except FileNotFoundError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Durability hooks (no-ops locally; shared-fs overrides)
    # ------------------------------------------------------------------ #
    def _sync_handle(self, handle) -> None:  # pragma: no cover - hook
        pass

    def _sync_dir(self, path: str) -> None:  # pragma: no cover - hook
        pass

    def describe(self) -> str:
        """The spec string that reproduces this backend."""
        return f"{self.name}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(root={self.root!r})"


class LocalBackend(StoreBackend):
    """A plain local directory — the single-host default."""

    name = "local"


class SharedFSBackend(StoreBackend):
    """An NFS-style shared mount: fsync data and directories on commit.

    Close-to-open consistency means a plain ``write`` may sit in the
    client cache while another host lists the directory; fsyncing the
    file before the rename and the directory after it makes every commit
    point (cell write, claim create, takeover rename) durably visible
    before the operation returns.
    """

    name = "shared-fs"

    def write_atomic(self, rel: str, text: str, tmp_rel: str) -> None:
        write_atomic(self.path(rel), text, self.path(tmp_rel))

    def _sync_handle(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def _sync_dir(self, path: str) -> None:
        fsync_dir(path)


BACKENDS: Dict[str, Type[StoreBackend]] = {
    LocalBackend.name: LocalBackend,
    SharedFSBackend.name: SharedFSBackend,
}


def parse_backend(spec: str) -> StoreBackend:
    """Build a backend from a store spec string.

    ``"shared-fs:/mnt/sweeps/run1"`` selects a registered backend by its
    prefix; anything without a registered prefix — including bare paths
    and relative paths with no colon — is a local directory.
    """
    text = str(spec)
    if ":" in text:
        prefix, _, rest = text.partition(":")
        if prefix in BACKENDS:
            if not rest:
                raise ValidationError(
                    f"store backend spec {text!r} is missing a path after the prefix"
                )
            return BACKENDS[prefix](rest)
        raise ValidationError(
            f"unknown store backend {prefix!r} in {text!r} "
            f"(available: {', '.join(sorted(BACKENDS))})"
        )
    return LocalBackend(text)
