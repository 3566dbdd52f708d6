"""Parallel execution of expanded sweep cells.

:func:`run_sweep` is the engine room of ``repro sweep``: it filters the
cell grid against the :class:`~repro.sweep.store.SweepStore` (``resume``
skips completed cells), groups the pending cells, fans the groups
across a ``multiprocessing`` pool, and persists every finished cell as
soon as its group's results are computed — so killing the sweep loses
at most the groups in flight.

A group is the cells one claimed run executes together: build-only
cells (experiments that registered a plan) of the same ``n`` build all
their deployments as one lockstep
:class:`~repro.core.deployment_batch.DeploymentBatch`, up to a cap on
stacked deployment nodes
(:func:`repro.scenario.session.merge_groups`); any other cell is a
group of one and runs exactly as
:meth:`~repro.scenario.session.SimulationSession.run` does.  With
``workers > 1`` groups are halved until every worker has one.

Since the distributed layer landed, the local pool is *one backend of
the same claim protocol* that ``repro sweep-worker`` speaks across
hosts: every group claims each of its cells
(:func:`repro.sweep.dist.worker.execute_group_claimed` — ``O_EXCL``
claim files, one heartbeat renewing every held lease, done/failed side
records per cell), executes them through the scenario layer's
:func:`~repro.scenario.session.run_group`, and writes each result
itself.  A ``repro sweep`` and any number of ``sweep-worker`` processes
(local or remote, via a ``shared-fs`` store) can therefore share one
store without duplicating work: a cell another live worker holds is
*deferred*, not re-run.

Because a cell's result is a pure function of its spec, results are
byte-identical across ``workers=1`` and ``workers=N`` regardless of
scheduling order or grouping — and across hosts.

The pool prefers the cheap ``fork`` start method (Linux) and falls back
to ``spawn`` elsewhere; the worker entry point is a module-level function
so both methods can pickle it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sweep.dist.claims import DEFAULT_LEASE_SECONDS
from repro.sweep.dist.worker import CellFailure, execute_group_claimed
from repro.sweep.store import SweepStore
from repro.sweep.template import SweepCell
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def _execute_group(payload: Tuple[int, List[Tuple[str, Dict[str, object]]], Dict[str, object]]):
    """Pool entry point: claim and run one group of cells, return outcomes.

    Returns ``(index, [outcome_dict, ...])``, one outcome per cell; each
    ``status`` is ``done`` / ``failed`` / ``claimed`` / ``already-done``
    (see :func:`repro.sweep.dist.worker.execute_group_claimed`).  A
    crashing group surfaces as ``failed`` outcomes, not as the pool's own
    exception — ``imap_unordered`` would re-raise it in the parent and
    abort every other in-flight group with a bare traceback.
    """
    index, cells, options = payload
    try:
        outcomes = execute_group_claimed(
            cells,
            store_spec=str(options["store_spec"]),
            lease_seconds=float(options["lease_seconds"]),
            skip_done=bool(options["skip_done"]),
            clear_failed=True,
        )
    except Exception as error:  # noqa: BLE001 - protocol errors contained too
        import traceback

        failure = {
            "status": "failed",
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
        }
        outcomes = [dict(failure, key=key) for key, _spec in cells]
    return index, outcomes


def _groups(cells: Sequence[SweepCell], workers: int) -> List[List[SweepCell]]:
    """The cells in the groups one claimed run each executes.

    :func:`repro.scenario.session.merge_groups` puts planned cells of one
    ``n`` together; with ``workers > 1`` the widest group is halved until
    every worker has a group or every group is one cell.
    """
    from repro.scenario.session import merge_groups

    groups = [[cells[i] for i in group] for group in merge_groups([c.spec for c in cells])]
    while groups and len(groups) < workers:
        widest = max(range(len(groups)), key=lambda g: len(groups[g]))
        group = groups[widest]
        if len(group) == 1:
            break
        half = len(group) // 2
        groups[widest : widest + 1] = [group[:half], group[half:]]
    return groups


def _pool_context():
    """The cheapest available start method (fork where the OS has it)."""
    import multiprocessing  # here: a workers=1 sweep and CLI start-up skip it

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class SweepReport:
    """What one :func:`run_sweep` invocation did."""

    total: int
    workers: int
    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: Every cell whose run raised: key, one-line error, full traceback.
    failed: List[CellFailure] = field(default_factory=list)
    #: Cells another live worker held (their lease was valid): nothing
    #: ran here; a concurrent ``sweep-worker`` — possibly on another
    #: host — owns them.
    deferred: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One machine-greppable line (CI asserts on ``skipped=...``)."""
        line = (
            f"SWEEP total={self.total} executed={len(self.executed)} "
            f"skipped={len(self.skipped)} failed={len(self.failed)}"
        )
        if self.deferred:
            line += f" deferred={len(self.deferred)}"
        return f"{line} workers={self.workers}"


def run_sweep(
    cells: Sequence[SweepCell],
    store: SweepStore,
    *,
    workers: int = 1,
    resume: bool = False,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    on_cell: Optional[Callable[[SweepCell], None]] = None,
) -> SweepReport:
    """Execute ``cells`` into ``store``; returns the execution report.

    Parameters
    ----------
    cells:
        The expanded grid (see :func:`repro.sweep.template.expand_corpus`).
    store:
        Destination store; finished cells are written atomically as they
        complete, in completion order (the store is content-addressed, so
        order does not matter).
    workers:
        Pool size.  ``1`` runs inline in this process — no pool, same
        bytes.
    resume:
        Skip cells whose key is already in the store.  Without it every
        cell re-executes (and overwrites its content-identical file).
    lease_seconds:
        Claim lease length for the work-claiming protocol (matters only
        when other workers share the store).
    on_cell:
        Optional progress callback, invoked with each cell as its result
        is persisted.

    A cell whose run raises is recorded in ``report.failed`` (key,
    one-line error, and the full traceback — also persisted as
    ``claims/<key>.failed`` in the store) and the remaining cells keep
    draining; nothing is stored for failed cells, so a fixed-up re-run
    with ``resume`` picks exactly them up again.  A cell held by another
    live worker's lease lands in ``report.deferred`` instead of being
    duplicated.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if lease_seconds <= 0:
        raise ValidationError(f"lease_seconds must be > 0, got {lease_seconds}")
    with telemetry.span("sweep.run", cells=len(cells), workers=int(workers)):
        # A sweep killed mid-write may have left .<key>.<host>.<pid>.tmp
        # orphans behind; every sweep start reclaims this host's dead ones.
        store.purge_stale_tmp()
        report = SweepReport(total=len(cells), workers=int(workers))
        pending: List[SweepCell] = []
        for cell in cells:
            if resume and store.has(cell.key):
                report.skipped.append(cell.key)
            else:
                pending.append(cell)
        if report.skipped:
            telemetry.count("sweep.cells.skipped", len(report.skipped))
        if not pending:
            return report

        groups = _groups(pending, workers)
        options = {
            "store_spec": store.backend.describe(),
            "lease_seconds": float(lease_seconds),
            # Without --resume a re-run must re-execute even completed cells;
            # with it, skip_done also absorbs races with concurrent workers
            # that finish a cell between our filter and our claim.
            "skip_done": bool(resume),
        }
        payloads = [
            (index, [(cell.key, cell.spec.to_dict()) for cell in group], options)
            for index, group in enumerate(groups)
        ]

        def record(index: int, outcomes: List[Dict[str, object]]) -> None:
            group = groups[index]
            telemetry.count("sweep.groups")
            telemetry.count("sweep.group_cells", len(group))
            for cell, outcome in zip(group, outcomes):
                record_cell(cell, outcome, len(group))

        def record_cell(cell: SweepCell, outcome: Dict[str, object], group: int) -> None:
            status = outcome.get("status")
            if status == "failed":
                telemetry.count("sweep.cells.failed")
                report.failed.append(
                    CellFailure(
                        key=cell.key,
                        error=str(outcome.get("error", "")),
                        traceback=str(outcome.get("traceback", "")),
                    )
                )
            elif status == "claimed":
                telemetry.count("sweep.cells.deferred")
                report.deferred.append(cell.key)
            elif status == "already-done":
                telemetry.count("sweep.cells.skipped")
                report.skipped.append(cell.key)
            else:  # done
                telemetry.count("sweep.cells.done")
                # Pool cells execute in child processes, where the parent's
                # tracer is invisible; the claim protocol's elapsed seconds
                # travel back in the outcome, so the parent back-dates one
                # span per completed cell regardless of backend.
                telemetry.record_span(
                    "sweep.cell",
                    float(outcome.get("elapsed", 0.0)),
                    key=cell.key,
                    reclaimed=bool(outcome.get("reclaimed", False)),
                    group=group,
                )
                report.executed.append(cell.key)
                if on_cell is not None:
                    on_cell(cell)

        if workers == 1 or len(groups) == 1:
            for payload in payloads:
                record(*_execute_group(payload))
            return report

        context = _pool_context()
        with context.Pool(processes=min(workers, len(groups))) as pool:
            for index, outcomes in pool.imap_unordered(
                _execute_group, payloads, chunksize=1
            ):
                record(index, outcomes)
        return report
