"""Claim-driven cell execution: the drain loop behind ``sweep-worker``.

:func:`execute_group_claimed` is the one code path that runs sweep
cells under the claim protocol — claim, heartbeat, execute, persist,
mark done/failed, release — and it is shared by *both* execution
surfaces:

* ``repro sweep-worker`` runs :func:`run_worker`, an in-process loop
  that drains unclaimed cells one at a time (:func:`execute_cell_claimed`,
  a group of one) until the whole corpus is done (waiting out, and
  eventually reclaiming, other workers' leases);
* ``repro sweep`` runs it on each group of cells its executor formed,
  inline or inside its ``multiprocessing`` pool, making the local pool
  one more backend of the same protocol — a pool worker and a remote
  host contend for cells with identical semantics, so both can safely
  share one store.

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
    """Background lease renewal of every held claim while cells execute.

    Renews at lease/4 so a healthy worker is never within three missed
    beats of expiry.  A renewal that finds a claim lost (reclaimed after
    a long stall) adds its key to ``lost`` and stops beating for it; the
    execution keeps going — the write-once store makes the duplicate
    harmless.
    """

    def __init__(self, claims: ClaimStore, records: Sequence[ClaimRecord]):
        self.claims = claims
        self.records = list(records)
        self.lost: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self.claims.lease_seconds / 4.0, 0.05)
        while not self._stop.wait(interval):
            for slot, record in enumerate(self.records):
                if record.key in self.lost:
                    continue
                try:
                    self.records[slot] = self.claims.renew(record)
                except ClaimLost:
                    self.lost.add(record.key)
                except OSError:  # pragma: no cover - transient mount hiccup
                    continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def _run_specs(spec_dicts: Sequence[Dict[str, object]]) -> List[tuple]:
    """``(result, None)`` or ``(None, (error, traceback))`` per spec.

    The specs run as one group (:func:`repro.scenario.session.run_group`);
    if that raises, each runs alone, so a failure and its traceback land
    on the spec that raised and the others still finish.
    """
    # Imported here so the module stays importable before fork and the
    # heavy scenario stack loads once per worker process.
    from repro.scenario.session import run_group
    from repro.scenario.spec import ScenarioSpec

    try:
        results = run_group([ScenarioSpec.from_dict(d) for d in spec_dicts])
    except Exception as error:  # noqa: BLE001 - contained per cell by design
        if len(spec_dicts) > 1:
            return [_run_specs([spec_dict])[0] for spec_dict in spec_dicts]
        message = f"{type(error).__name__}: {error}"
        return [(None, (message, traceback_module.format_exc()))]
    return [(result, None) for result in results]


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
    return execute_group_claimed(
        [(key, spec_dict)],
        store_spec=store_spec,
        lease_seconds=lease_seconds,
        skip_done=skip_done,
        clear_failed=clear_failed,
    )[0]


def execute_group_claimed(
    cells: Sequence[tuple],
    *,
    store_spec: str,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    skip_done: bool = False,
    clear_failed: bool = True,
) -> List[Dict[str, object]]:
    """Run ``(key, spec_dict)`` cells as one group under the claim protocol.

    Every cell is claimed before anything runs; a cell another live
    worker holds, or (with ``skip_done``) already done, is left out with
    the outcome :func:`execute_cell_claimed` gives it.  The held cells
    run together (:func:`_run_specs`) under one heartbeat that renews
    every held claim; each result is stored and marked done as its own
    cell (the done record keeps the real time from claim to done), each
    failure recorded on its own key.  ``finally`` releases every held
    claim, on an interrupt too.  Returns one outcome per cell, in order.
    """
    from repro.sweep.store import SweepStore

    store = SweepStore(store_spec)
    claims = ClaimStore(store.backend, lease_seconds=lease_seconds)
    outcomes: List[Dict[str, object]] = []
    held: List[tuple] = []  # (outcome, spec_dict, claim)
    try:
        for key, spec_dict in cells:
            outcome: Dict[str, object] = {
                "key": key,
                "host": claims.host,
                "pid": claims.pid,
                "reclaimed": False,
            }
            outcomes.append(outcome)
            if skip_done and store.has(key):
                outcome["status"] = "already-done"
                continue
            claim = claims.try_claim(key)
            if claim is None:
                holder = claims.read(key)
                outcome["status"] = "claimed"
                outcome["owner"] = holder.owner() if holder is not None else "unknown"
                continue
            held.append((outcome, spec_dict, claim))
            outcome["reclaimed"] = claim.reclaimed
        running = []
        for outcome, spec_dict, claim in held:
            if skip_done and store.has(claim.key):
                outcome["status"] = "already-done"
                continue
            if clear_failed:
                claims.clear_failed(claim.key)
            running.append((outcome, spec_dict, claim))
        if not running:
            return outcomes
        with _Heartbeat(claims, [claim for *_, claim in running]) as heartbeat:
            ran = _run_specs([spec_dict for _outcome, spec_dict, _claim in running])
        for (outcome, spec_dict, claim), (result, failure) in zip(running, ran):
            if failure is not None:
                message, trace = failure
                claims.mark_failed(claim.key, error=message, traceback_text=trace)
                outcome.update(status="failed", error=message, traceback=trace)
                continue
            store.put(claim.key, spec_dict, result.as_dict())
            finished = claims.clock()
            claims.mark_done(
                claim.key,
                started=claim.started,
                finished=finished,
                experiment=str(spec_dict.get("experiment", "")),
                reclaimed=claim.reclaimed,
            )
            outcome.update(
                status="done",
                elapsed=max(0.0, finished - claim.started),
                lost_lease=claim.key in heartbeat.lost,
            )
        return outcomes
    finally:
        for _outcome, _spec_dict, claim in held:
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
