"""Segmented, crash-tolerant mutation-log I/O for the serve stack.

The service's mutation log used to be one ever-growing JSONL file whose
only recovery story was a full replay from epoch 0.  This module gives
the log a *segment* structure anchored at checkpoints:

* the **current segment** always lives at the configured log path and
  always begins with an ``open`` header; when the service writes a
  checkpoint it seals the segment with a ``checkpoint`` entry, archives
  it as ``<path>.<index>`` (zero-padded, monotonically increasing), and
  starts a fresh segment whose header names the checkpoint it resumes
  from — so crash recovery replays *one segment*, never the full
  history;
* every entry is flushed **and fsynced** before the append returns, so
  an entry the service acknowledged (a mutation ack, an epoch digest)
  survives a SIGKILL; the only loss mode is a *torn tail* — a partial
  final line from a crash mid-``write`` — which :func:`read_segment`
  detects, preserves in a ``.corrupt`` sidecar, and truncates away.

A torn tail is strictly an end-of-file phenomenon: a malformed line
*followed by* further entries is real corruption and stays a hard
error, because silently skipping interior entries would desynchronise
replay from the digests that follow.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.durable_io import fsync_dir, replace_durably
from repro.util.validation import ValidationError

#: Mutation-log schema version (segment ``open`` headers carry it).
LOG_SCHEMA_VERSION = 2

#: Width of the archived-segment numeric suffix (``serve.jsonl.000``).
SEGMENT_SUFFIX_WIDTH = 3

_SEGMENT_SUFFIX = re.compile(r"\.(\d{%d,})$" % SEGMENT_SUFFIX_WIDTH)


def segment_path(path: str, index: int) -> str:
    """The archive name of segment ``index`` of the log at ``path``."""
    return f"{path}.{int(index):0{SEGMENT_SUFFIX_WIDTH}d}"


def list_segments(path: str) -> List[Tuple[int, str]]:
    """Archived segments of the log at ``path``: ``(index, path)`` sorted.

    The current (unarchived) segment at ``path`` itself is *not*
    included — callers append it explicitly when walking the chain.
    """
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if not name.startswith(base + "."):
            continue
        match = _SEGMENT_SUFFIX.search(name)
        if match is None or name != base + match.group(0):
            continue
        found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


@dataclass
class SegmentRead:
    """One parsed log segment, with torn-tail forensics."""

    path: str
    entries: List[Dict[str, object]] = field(default_factory=list)
    #: Raw bytes of a torn (partial, crash-interrupted) final line.
    torn_tail: Optional[bytes] = None
    #: Sidecar file the torn tail was preserved in (repair mode only).
    sidecar: Optional[str] = None
    #: True when the file itself was truncated back to the last good line.
    repaired: bool = False


def read_segment(path: str, *, repair: bool = False) -> SegmentRead:
    """Parse one JSONL log segment, tolerating a torn final line.

    A partial final line — no trailing newline, or bytes that do not
    parse as a JSON object — is the signature of a crash mid-append.
    The tail is reported in :attr:`SegmentRead.torn_tail`; with
    ``repair`` the raw bytes are additionally preserved in a
    ``<path>.corrupt`` sidecar and the segment file is truncated back to
    its last intact entry, so subsequent appends (and naive readers)
    see a well-formed log.  A malformed line *before* the final one is
    never repaired: that is interior corruption and raises.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise ValidationError(f"cannot read mutation log {path!r}: {error}")
    result = SegmentRead(path=path)
    if not raw:
        return result
    lines = raw.split(b"\n")
    # A file ending in "\n" splits into [..., b""]; anything else left in
    # the final slot is an unterminated (torn) tail candidate.
    unterminated = lines.pop() if lines else b""
    good_bytes = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped:
            entry = _parse_entry(line)
            if entry is None:
                if number == len(lines) and not unterminated:
                    # Terminated but unparseable final line: torn write
                    # that happened to include the newline of the next
                    # buffered entry, or a crash mid-flush.
                    result.torn_tail = line
                    break
                raise ValidationError(
                    f"{path}:{number}: not a valid log entry (interior corruption)"
                )
            result.entries.append(entry)
        good_bytes += len(line) + 1
    if unterminated:
        entry = _parse_entry(unterminated)
        if entry is not None:
            # Complete JSON missing only its newline (crash between
            # write and the terminator landing): keep the entry.
            result.entries.append(entry)
            good_bytes += len(unterminated)
        else:
            result.torn_tail = unterminated
    if result.torn_tail is not None and repair:
        sidecar = path + ".corrupt"
        with open(sidecar, "ab") as handle:
            handle.write(result.torn_tail)
            handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        with open(path, "r+b") as handle:
            handle.truncate(good_bytes)
            handle.flush()
            os.fsync(handle.fileno())
        result.sidecar = sidecar
        result.repaired = True
    return result


def _parse_entry(line: bytes) -> Optional[Dict[str, object]]:
    """The entry a log line holds, or None when it is not one."""
    try:
        entry = json.loads(line)
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(entry, dict) or "kind" not in entry:
        return None
    return entry


class LogWriter:
    """Append-only JSONL segment writer with per-entry durability.

    Every :meth:`append` flushes and fsyncs before returning: an entry
    the caller acted on (acknowledged a mutation, served an epoch) is on
    disk, and the worst a SIGKILL can leave behind is a torn final line
    that :func:`read_segment` repairs.
    """

    def __init__(self, path: str, *, segment: int = 0):
        self.path = path
        self.segment = int(segment)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a")

    def append(self, entry: Dict[str, object]) -> None:
        """Durably append one entry (strict JSON, one line)."""
        if self._handle is None:
            raise ValidationError("the mutation log is closed")
        json.dump(entry, self._handle, separators=(",", ":"), allow_nan=False)
        self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rotate(self, header: Dict[str, object]) -> str:
        """Archive the current segment and start the next one.

        The open segment is closed and renamed to its archive name
        (``<path>.<segment>``), the directory entry is fsynced so the
        rename survives a crash, and a fresh segment opens at the base
        path with ``header`` as its first entry.  Returns the archive
        path.
        """
        if self._handle is None:
            raise ValidationError("the mutation log is closed")
        archived = segment_path(self.path, self.segment)
        self.close()
        replace_durably(self.path, archived)
        self.segment += 1
        self._handle = open(self.path, "a")
        self.append(header)
        return archived

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


def compact_segments(path: str, *, keep_from: int) -> List[str]:
    """Delete archived segments with index < ``keep_from``.

    The compaction half of rotation: once a checkpoint anchored at
    segment ``keep_from`` is the oldest one worth keeping, every earlier
    segment is dead weight (recovery starts at a checkpoint, and
    full-history replay is explicitly traded away).  Returns the deleted
    paths.
    """
    removed: List[str] = []
    for index, archived in list_segments(path):
        if index < int(keep_from):
            try:
                os.unlink(archived)
            except FileNotFoundError:  # pragma: no cover - raced cleanup
                continue
            removed.append(archived)
    if removed:
        fsync_dir(os.path.dirname(path))
    return removed


__all__ = [
    "LOG_SCHEMA_VERSION",
    "LogWriter",
    "SEGMENT_SUFFIX_WIDTH",
    "SegmentRead",
    "compact_segments",
    "list_segments",
    "read_segment",
    "segment_path",
]
