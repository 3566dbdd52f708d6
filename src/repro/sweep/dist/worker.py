"""Claim-driven cell execution: the drain loop behind ``sweep-worker``.

:func:`execute_cell_claimed` is the one code path that runs a sweep cell
under the claim protocol — claim, heartbeat, execute, persist, mark
done/failed, release — and it is shared by *both* execution surfaces:

* ``repro sweep-worker`` runs :func:`run_worker`, an in-process loop
  that drains unclaimed cells until the whole corpus is done (waiting
  out, and eventually reclaiming, other workers' leases);
* ``repro sweep --workers N`` dispatches the same function inside its
  ``multiprocessing`` pool, making the local pool one more backend of
  the same protocol — a pool worker and a remote host contend for cells
  with identical semantics, so both can safely share one store.

Because results are write-once and byte-deterministic per cell, every
race in the protocol degrades to wasted work, never wrong bytes: the
worst case is two workers computing the same cell and overwriting the
file with identical content.
"""

from __future__ import annotations

import hashlib
import signal as signal_module
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.sweep.dist.claims import (
    DEFAULT_LEASE_SECONDS,
    ClaimLost,
    ClaimRecord,
    ClaimStore,
)
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError

if TYPE_CHECKING:  # imported lazily at run time to avoid a package cycle
    from repro.sweep.store import SweepStore
    from repro.sweep.template import SweepCell


class WorkerInterrupted(BaseException):
    """SIGTERM/SIGINT arrived: unwind the drain loop, releasing claims.

    Deliberately a ``BaseException``: the per-cell ``except Exception``
    in :func:`execute_cell_claimed` must *not* catch it (an interrupted
    cell is unfinished, not failed — another worker should claim it),
    while the ``finally: claims.release(claim)`` still runs, so the
    interrupted worker's live claim is released immediately instead of
    squatting until the lease expires.
    """

    def __init__(self, signum: int):
        super().__init__(f"interrupted by signal {signum}")
        self.signum = int(signum)


@dataclass(frozen=True)
class CellFailure:
    """One cell whose run raised: key, one-line error, full traceback."""

    key: str
    error: str
    traceback: str

    def as_dict(self) -> Dict[str, str]:
        return {"key": self.key, "error": self.error, "traceback": self.traceback}


class _Heartbeat:
    """Background lease renewal while a cell executes.

    Renews at lease/4 so a healthy worker is never within three missed
    beats of expiry.  A renewal that finds the claim lost (reclaimed
    after a long stall) flips ``lost`` and stops beating; the execution
    keeps going — the write-once store makes the duplicate harmless.
    """

    def __init__(self, claims: ClaimStore, record: ClaimRecord):
        self.claims = claims
        self.record = record
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self.claims.lease_seconds / 4.0, 0.05)
        while not self._stop.wait(interval):
            try:
                self.record = self.claims.renew(self.record)
            except ClaimLost:
                self.lost = True
                return
            except OSError:  # pragma: no cover - transient mount hiccup
                continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def execute_cell_claimed(
    key: str,
    spec_dict: Dict[str, object],
    *,
    store_spec: str,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    skip_done: bool = False,
    clear_failed: bool = True,
) -> Dict[str, object]:
    """Run one cell under the claim protocol; returns an outcome record.

    Outcome ``status`` is one of:

    * ``"done"`` — claimed, executed, result stored, completion marked;
    * ``"failed"`` — claimed and executed but the run raised; the error
      and full traceback are in the outcome *and* persisted as
      ``claims/<key>.failed`` so the failure is debuggable from the
      store alone;
    * ``"claimed"`` — another worker holds a live lease; nothing ran;
    * ``"already-done"`` — ``skip_done`` and the result appeared (either
      before claiming or while racing for the claim).

    ``clear_failed`` removes a stale failure record before a fresh
    attempt (``repro sweep`` re-attempts failed cells; the cooperative
    ``sweep-worker`` loop leaves them to be skipped instead).
    """
    from repro.sweep.store import SweepStore

    store = SweepStore(store_spec)
    claims = ClaimStore(store.backend, lease_seconds=lease_seconds)
    outcome: Dict[str, object] = {
        "key": key,
        "host": claims.host,
        "pid": claims.pid,
        "reclaimed": False,
    }
    if skip_done and store.has(key):
        outcome["status"] = "already-done"
        return outcome
    claim = claims.try_claim(key)
    if claim is None:
        holder = claims.read(key)
        outcome["status"] = "claimed"
        outcome["owner"] = holder.owner() if holder is not None else "unknown"
        return outcome
    outcome["reclaimed"] = claim.reclaimed
    try:
        if skip_done and store.has(key):
            outcome["status"] = "already-done"
            return outcome
        if clear_failed:
            claims.clear_failed(key)
        # Imported here so the module stays importable before fork and
        # the heavy scenario stack loads once per worker process.
        from repro.scenario.session import SimulationSession
        from repro.scenario.spec import ScenarioSpec

        with _Heartbeat(claims, claim) as heartbeat:
            try:
                spec = ScenarioSpec.from_dict(spec_dict)
                result = SimulationSession(spec).run()
            except Exception as error:  # noqa: BLE001 - contained per cell by design
                message = f"{type(error).__name__}: {error}"
                trace = traceback_module.format_exc()
                claims.mark_failed(key, error=message, traceback_text=trace)
                outcome.update(status="failed", error=message, traceback=trace)
                return outcome
        store.put(key, spec_dict, result.as_dict())
        finished = claims.clock()
        claims.mark_done(
            key,
            started=claim.started,
            finished=finished,
            experiment=str(spec_dict.get("experiment", "")),
            reclaimed=claim.reclaimed,
        )
        outcome.update(
            status="done",
            elapsed=max(0.0, finished - claim.started),
            lost_lease=heartbeat.lost,
        )
        return outcome
    finally:
        claims.release(claim)


@dataclass
class WorkerReport:
    """What one :func:`run_worker` drain loop did (and observed)."""

    host: str
    pid: int
    total: int
    #: Keys this worker executed successfully.
    executed: List[str] = field(default_factory=list)
    #: Keys found (or observed becoming) complete without running here.
    skipped_done: List[str] = field(default_factory=list)
    #: Keys skipped because another worker left a failure record.
    skipped_failed: List[str] = field(default_factory=list)
    #: Cells this worker ran that raised (with tracebacks).
    failed: List[CellFailure] = field(default_factory=list)
    #: Keys whose expired claim this worker took over.
    reclaimed: List[str] = field(default_factory=list)
    #: Keys still neither done nor failed when the loop exited.
    pending: List[str] = field(default_factory=list)
    #: Rounds spent waiting on other workers' live leases.
    waited_rounds: int = 0
    timed_out: bool = False
    #: Signal number that interrupted the drain loop (None = ran to term).
    interrupted: Optional[int] = None

    def failed_total(self) -> int:
        """Corpus-wide failure count: own failures plus observed records."""
        return len(self.failed) + len(self.skipped_failed)

    def summary(self) -> str:
        """One machine-greppable line, same shape as ``SWEEP`` summaries."""
        line = (
            f"SWEEP total={self.total} executed={len(self.executed)} "
            f"skipped={len(self.skipped_done) + len(self.skipped_failed)} "
            f"failed={self.failed_total()}"
        )
        if self.pending:
            line += f" pending={len(self.pending)}"
        if self.interrupted is not None:
            line += f" interrupted=sig{self.interrupted}"
        return f"{line} workers=1 host={self.host} pid={self.pid}"


def _rotated(cells: "Sequence[SweepCell]", host: str, pid: int) -> "List[SweepCell]":
    """The cell list rotated by a per-worker offset.

    Workers starting simultaneously would otherwise all race for cell 0,
    lose N-1 claims, race for cell 1, ... — a deterministic per-worker
    starting point spreads them across the corpus.  (Purely an
    efficiency knob: claim contention is safe, just wasteful.)
    """
    if not cells:
        return []
    seed = hashlib.blake2b(f"{host}:{pid}".encode(), digest_size=4).digest()
    offset = int.from_bytes(seed, "big") % len(cells)
    return list(cells[offset:]) + list(cells[:offset])


def install_interrupt_handlers() -> Dict[int, object]:
    """Make SIGTERM/SIGINT raise :class:`WorkerInterrupted` (main thread).

    Returns the previous handlers so the caller can restore them; a
    no-op (empty dict) off the main thread, where CPython forbids
    ``signal.signal``.
    """
    if threading.current_thread() is not threading.main_thread():
        return {}

    def _raise(signum, _frame):
        raise WorkerInterrupted(signum)

    previous: Dict[int, object] = {}
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        previous[signum] = signal_module.signal(signum, _raise)
    return previous


def restore_interrupt_handlers(previous: Dict[int, object]) -> None:
    """Undo :func:`install_interrupt_handlers`."""
    for signum, handler in previous.items():
        signal_module.signal(signum, handler)


def run_worker(
    cells: "Sequence[SweepCell]",
    store: "SweepStore",
    *,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = 0.5,
    max_cells: Optional[int] = None,
    retry_failed: bool = False,
    wait_timeout: Optional[float] = None,
    on_event: Optional[Callable[[str, SweepCell, Dict[str, object]], None]] = None,
    handle_signals: bool = False,
) -> WorkerReport:
    """Drain ``cells`` into ``store`` cooperatively until the corpus is done.

    The loop repeatedly scans the corpus (from a per-worker rotation
    point), claims and executes any cell that is neither complete, nor
    failure-marked, nor held by a live lease.  When every remaining cell
    is claimed elsewhere, it sleeps ``poll_seconds`` and rescans — so it
    naturally waits out other workers and reclaims their cells if their
    leases expire.  It returns when every cell is accounted for
    (done or failed), when ``max_cells`` own executions are reached, or
    when ``wait_timeout`` seconds pass without the corpus completing.

    ``retry_failed`` re-attempts cells that carry a failure record
    (clearing the record first); by default they are skipped, so a crash
    loop cannot bounce between workers forever.

    ``on_event(kind, cell, outcome)`` observes progress; kinds are
    ``done`` / ``failed`` / ``skipped-done`` / ``skipped-failed`` /
    ``waiting``.

    ``handle_signals`` (the CLI's mode; needs the main thread) converts
    SIGTERM/SIGINT into a clean unwind: the in-flight cell's claim is
    released immediately — not left to squat until its lease expires —
    the cell stays unaccounted for another worker, and the report comes
    back with :attr:`WorkerReport.interrupted` set instead of the
    process dying mid-claim.
    """
    if poll_seconds <= 0:
        raise ValidationError(f"poll_seconds must be > 0, got {poll_seconds}")
    claims = ClaimStore(store.backend, lease_seconds=lease_seconds)
    report = WorkerReport(host=claims.host, pid=claims.pid, total=len(cells))
    ordered = _rotated(cells, claims.host, claims.pid)
    accounted: set = set()
    deadline = None if wait_timeout is None else time.monotonic() + wait_timeout
    previous_handlers = install_interrupt_handlers() if handle_signals else {}

    def emit(kind: str, cell: SweepCell, outcome: Dict[str, object]) -> None:
        if on_event is not None:
            on_event(kind, cell, outcome)

    try:
        with telemetry.span("worker.run", cells=len(cells), host=claims.host):
            _drain(
                cells,
                ordered,
                store,
                claims,
                report,
                accounted,
                emit,
                lease_seconds=lease_seconds,
                poll_seconds=poll_seconds,
                max_cells=max_cells,
                retry_failed=retry_failed,
                deadline=deadline,
            )
    except WorkerInterrupted as interrupt:
        report.interrupted = interrupt.signum
        report.pending = [cell.key for cell in cells if cell.key not in accounted]
        telemetry.count("worker.interrupted")
    finally:
        restore_interrupt_handlers(previous_handlers)
    return report


def _drain(
    cells: "Sequence[SweepCell]",
    ordered: "List[SweepCell]",
    store: "SweepStore",
    claims: ClaimStore,
    report: WorkerReport,
    accounted: set,
    emit: Callable[[str, "SweepCell", Dict[str, object]], None],
    *,
    lease_seconds: float,
    poll_seconds: float,
    max_cells: Optional[int],
    retry_failed: bool,
    deadline: Optional[float],
) -> None:
    """The scan-claim-execute rounds of :func:`run_worker`."""
    while True:
        progressed = False
        for cell in ordered:
            if cell.key in accounted:
                continue
            if max_cells is not None and len(report.executed) >= max_cells:
                break
            if store.has(cell.key):
                accounted.add(cell.key)
                report.skipped_done.append(cell.key)
                telemetry.count("worker.cells.skipped")
                emit("skipped-done", cell, {})
                progressed = True
                continue
            if not retry_failed and claims.failed_record(cell.key) is not None:
                accounted.add(cell.key)
                report.skipped_failed.append(cell.key)
                telemetry.count("worker.cells.skipped")
                emit("skipped-failed", cell, claims.failed_record(cell.key) or {})
                progressed = True
                continue
            outcome = execute_cell_claimed(
                cell.key,
                cell.spec.to_dict(),
                store_spec=store.backend.describe(),
                lease_seconds=lease_seconds,
                skip_done=True,
                clear_failed=retry_failed,
            )
            status = outcome["status"]
            if status == "done":
                accounted.add(cell.key)
                report.executed.append(cell.key)
                telemetry.count("worker.cells.done")
                telemetry.record_span(
                    "worker.cell",
                    float(outcome.get("elapsed", 0.0)),
                    key=cell.key,
                    reclaimed=bool(outcome.get("reclaimed", False)),
                )
                if outcome.get("reclaimed"):
                    report.reclaimed.append(cell.key)
                    telemetry.count("worker.cells.reclaimed")
                emit("done", cell, outcome)
                progressed = True
            elif status == "already-done":
                accounted.add(cell.key)
                report.skipped_done.append(cell.key)
                telemetry.count("worker.cells.skipped")
                emit("skipped-done", cell, outcome)
                progressed = True
            elif status == "failed":
                accounted.add(cell.key)
                report.failed.append(
                    CellFailure(
                        key=cell.key,
                        error=str(outcome.get("error", "")),
                        traceback=str(outcome.get("traceback", "")),
                    )
                )
                telemetry.count("worker.cells.failed")
                emit("failed", cell, outcome)
                progressed = True
            else:  # "claimed": leave unaccounted; a later round re-checks.
                telemetry.count("worker.cells.deferred")

        pending = [cell.key for cell in cells if cell.key not in accounted]
        if max_cells is not None and len(report.executed) >= max_cells:
            report.pending = pending
            break
        if not pending:
            report.pending = []
            break
        if not progressed:
            if deadline is not None and time.monotonic() >= deadline:
                report.pending = pending
                report.timed_out = True
                break
            report.waited_rounds += 1
            for cell in cells:
                if cell.key in pending[:1]:
                    emit("waiting", cell, {"pending": len(pending)})
            time.sleep(poll_seconds)
