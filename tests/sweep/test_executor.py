"""Tests for the parallel sweep executor: parity, resume, reporting."""

from __future__ import annotations

import pytest

from repro.sweep import SweepStore, SweepTemplate, run_sweep
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def cells():
    template = SweepTemplate.from_dict(
        {
            "name": "exec-test",
            "base": {
                "experiment": "fig1-delay-ping",
                "n": 10,
                "k_grid": [2],
                "br_rounds": 1,
                "seed": 3,
            },
            "axes": {
                "panel": [
                    {"label": "ping", "experiment": "fig1-delay-ping", "metric": "delay-ping"},
                    {"label": "load", "experiment": "fig1-node-load", "metric": "load"},
                ],
                "n": [10, 12],
            },
        }
    )
    return template.expand()


class TestExecution:
    def test_inline_run_fills_the_store(self, cells, tmp_path):
        store = SweepStore(str(tmp_path))
        report = run_sweep(cells, store, workers=1)
        assert len(report.executed) == len(cells) == 4
        assert report.skipped == []
        for cell in cells:
            document = store.get(cell.key)
            assert document["spec"] == cell.spec.to_dict()
            assert document["result"]["metadata"]["scenario"] == cell.spec.to_dict()

    def test_workers_byte_identical_to_inline(self, cells, tmp_path):
        inline_store = SweepStore(str(tmp_path / "inline"))
        pool_store = SweepStore(str(tmp_path / "pool"))
        run_sweep(cells, inline_store, workers=1)
        run_sweep(cells, pool_store, workers=2)
        for cell in cells:
            assert inline_store.get(cell.key) == pool_store.get(cell.key), cell.key

    def test_resume_skips_completed_cells_only(self, cells, tmp_path):
        store = SweepStore(str(tmp_path))
        # Simulate a sweep killed after two cells: only those are stored.
        run_sweep(cells[:2], store, workers=1)
        executed = []
        report = run_sweep(
            cells, store, workers=1, resume=True, on_cell=lambda c: executed.append(c.key)
        )
        assert sorted(report.skipped) == sorted(cell.key for cell in cells[:2])
        assert sorted(report.executed) == sorted(cell.key for cell in cells[2:])
        assert sorted(executed) == sorted(report.executed)
        # A second resume finds everything done and executes nothing.
        final = run_sweep(cells, store, workers=2, resume=True)
        assert final.executed == []
        assert len(final.skipped) == len(cells)

    def test_without_resume_cells_reexecute(self, cells, tmp_path):
        store = SweepStore(str(tmp_path))
        run_sweep(cells[:1], store, workers=1)
        report = run_sweep(cells[:1], store, workers=1)
        assert len(report.executed) == 1 and report.skipped == []

    def test_report_summary_is_machine_greppable(self, cells, tmp_path):
        store = SweepStore(str(tmp_path))
        run_sweep(cells, store, workers=1)
        report = run_sweep(cells, store, workers=2, resume=True)
        assert (
            report.summary()
            == "SWEEP total=4 executed=0 skipped=4 failed=0 workers=2"
        )

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"workers": 0}, "workers"),
            ({"lease_seconds": 0}, "lease_seconds"),
            ({"lease_seconds": -5}, "lease_seconds"),
        ],
        ids=["workers=0", "lease=0", "lease=-5"],
    )
    def test_invalid_worker_count_rejected(self, cells, tmp_path, options, match):
        """Bad options fail up front: nothing purged, claimed or run."""
        store_dir = tmp_path / "store"
        with pytest.raises(ValidationError, match=match):
            run_sweep(cells, SweepStore(str(store_dir)), **options)
        assert not store_dir.exists() or not any(store_dir.rglob("*"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_does_not_abort_the_sweep(self, tmp_path, workers):
        """One crashing cell is recorded as failed; the rest keep running."""
        template = SweepTemplate.from_dict(
            {
                "name": "exec-fail",
                "base": {
                    "experiment": "fig1-delay-ping",
                    "n": 10,
                    "k_grid": [2],
                    "br_rounds": 1,
                    "seed": 3,
                },
                "axes": {
                    "panel": [
                        {"label": "good-a", "experiment": "fig1-delay-ping"},
                        # Template-valid but crashes at run time: the fig2
                        # runner requires a churn spec.
                        {"label": "bad", "experiment": "fig2-efficiency-vs-k",
                         "metric": "delay-true", "epochs": 1},
                        {"label": "good-b", "experiment": "fig1-node-load",
                         "metric": "load"},
                    ]
                },
            }
        )
        mixed = template.expand()
        bad = mixed[1]
        store = SweepStore(str(tmp_path / f"w{workers}"))
        report = run_sweep(mixed, store, workers=workers)
        assert sorted(report.executed) == sorted(
            c.key for c in (mixed[0], mixed[2])
        )
        assert [failure.key for failure in report.failed] == [bad.key]
        assert "churn" in report.failed[0].error
        # The full traceback travels with the failure record — and is
        # persisted next to the store, so a remote worker's crash is
        # debuggable from the store directory alone.
        assert "Traceback (most recent call last)" in report.failed[0].traceback
        from repro.sweep.dist import ClaimStore

        stored_failure = ClaimStore(store.backend).failed_record(bad.key)
        assert stored_failure is not None
        assert "churn" in stored_failure["error"]
        assert "Traceback (most recent call last)" in stored_failure["traceback"]
        assert store.has(mixed[0].key) and store.has(mixed[2].key)
        assert not store.has(bad.key)  # failed cells store nothing
        assert "failed=1" in report.summary()
        # A fixed-up resume would re-attempt exactly the failed cell.
        resumed = run_sweep(mixed[:1], store, workers=1, resume=True)
        assert resumed.skipped == [mixed[0].key]

    def test_run_sweep_purges_stale_tmp_files(self, cells, tmp_path):
        from repro.sweep.dist import local_host

        store = SweepStore(str(tmp_path))
        run_sweep(cells[:1], store, workers=1)
        orphan = tmp_path / f".{cells[0].key}.{local_host()}.999999999.tmp"
        orphan.write_text("truncated")
        run_sweep(cells[:1], store, workers=1, resume=True)
        assert not orphan.exists()

    def test_run_sweep_defers_cells_claimed_by_live_workers(self, cells, tmp_path):
        """A cell another live worker holds is not duplicated here."""
        from repro.sweep.dist import ClaimStore

        store = SweepStore(str(tmp_path))
        foreign = ClaimStore(
            store.backend, lease_seconds=300.0, host="other-host", pid=1
        )
        held = foreign.try_claim(cells[0].key)
        assert held is not None
        report = run_sweep(cells, store, workers=1)
        assert report.deferred == [cells[0].key]
        assert sorted(report.executed) == sorted(c.key for c in cells[1:])
        assert not store.has(cells[0].key)
        assert "deferred=1" in report.summary()
        # Once the foreign worker's lease expires, a re-run reclaims it.
        expired = ClaimStore(
            store.backend, lease_seconds=1e-9, host="other-host", pid=1
        )
        foreign.release(held)
        assert expired.try_claim(cells[0].key) is not None
        import time

        time.sleep(0.01)
        rerun = run_sweep(cells, store, workers=1, resume=True)
        assert rerun.executed == [cells[0].key]
        assert store.has(cells[0].key)
