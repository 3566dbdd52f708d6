"""Tests for the coordinator-free claim protocol: races, leases, markers."""

from __future__ import annotations

import json
import threading

import pytest

from repro.sweep.dist import (
    ClaimLost,
    ClaimRecord,
    ClaimStore,
    LocalBackend,
    local_host,
)
from repro.util.validation import ValidationError

KEY = "c" * 32


@pytest.fixture
def backend(tmp_path):
    return LocalBackend(str(tmp_path))


class TestClaimLifecycle:
    def test_claim_renew_release(self, backend):
        claims = ClaimStore(backend, lease_seconds=60.0)
        record = claims.try_claim(KEY)
        assert record is not None
        assert record.host == local_host()
        assert not claims.expired(record)
        renewed = claims.renew(record)
        assert renewed.renewals == 1
        assert renewed.lease_expiry > record.lease_expiry
        claims.release(renewed)
        assert claims.read(KEY) is None

    def test_live_claim_blocks_others(self, backend):
        first = ClaimStore(backend, lease_seconds=60.0, host="host-a", pid=1)
        second = ClaimStore(backend, lease_seconds=60.0, host="host-b", pid=2)
        assert first.try_claim(KEY) is not None
        assert second.try_claim(KEY) is None

    def test_record_roundtrips_through_json(self):
        record = ClaimRecord(
            key=KEY, host="h", pid=3, started=1.5, lease_expiry=61.5,
            renewals=2, reclaimed=True,
        )
        assert ClaimRecord.from_json(record.to_json()) == record

    def test_release_preserves_a_reclaimed_claim(self, backend):
        """Releasing after losing the lease must not drop the new owner."""
        old = ClaimStore(backend, lease_seconds=1e-9, host="dead-host", pid=1)
        stale = old.try_claim(KEY)
        new = ClaimStore(backend, lease_seconds=60.0, host="live-host", pid=2)
        fresh = new.try_claim(KEY)  # reclaims the expired lease
        assert fresh is not None and fresh.reclaimed
        old.release(stale)  # the dead worker's tardy release
        current = new.read(KEY)
        assert current is not None and current.owner() == "live-host:2"

    def test_renew_after_loss_raises(self, backend):
        old = ClaimStore(backend, lease_seconds=1e-9, host="dead-host", pid=1)
        stale = old.try_claim(KEY)
        new = ClaimStore(backend, lease_seconds=60.0, host="live-host", pid=2)
        assert new.try_claim(KEY) is not None
        with pytest.raises(ClaimLost, match="live-host:2"):
            old.renew(stale)

    def test_invalid_lease_rejected(self, backend):
        with pytest.raises(ValidationError, match="lease_seconds"):
            ClaimStore(backend, lease_seconds=0.0)

    def test_corrupt_claim_is_reclaimable(self, backend):
        backend.create_exclusive(f"claims/{KEY}.claim", "{torn write")
        claims = ClaimStore(backend, lease_seconds=60.0)
        read = claims.read(KEY)
        assert read is not None and claims.expired(read)
        assert claims.try_claim(KEY) is not None


class TestExpiryAndReclaim:
    def test_expired_claim_is_taken_over(self, backend):
        dead = ClaimStore(backend, lease_seconds=1e-9, host="dead-host", pid=1)
        assert dead.try_claim(KEY) is not None
        live = ClaimStore(backend, lease_seconds=60.0, host="live-host", pid=2)
        record = live.try_claim(KEY)
        assert record is not None
        assert record.reclaimed is True
        assert record.owner() == "live-host:2"
        stored = live.read(KEY)
        assert stored.owner() == "live-host:2"
        # No takeover debris left behind.
        assert all(
            not entry.endswith(".takeover") for entry in backend.listdir("claims")
        )

    def test_done_and_failed_markers_roundtrip(self, backend):
        claims = ClaimStore(backend, lease_seconds=60.0)
        claims.mark_done(KEY, started=10.0, finished=12.5, experiment="fig1")
        done = claims.done_record(KEY)
        assert done["elapsed"] == 2.5
        assert done["experiment"] == "fig1"
        claims.mark_failed(KEY, error="ValueError: boom", traceback_text="TB...")
        failed = claims.failed_record(KEY)
        assert failed["error"] == "ValueError: boom"
        assert failed["traceback"] == "TB..."
        assert claims.clear_failed(KEY) is True
        assert claims.failed_record(KEY) is None

    def test_listings_group_by_suffix(self, backend):
        claims = ClaimStore(backend, lease_seconds=60.0)
        claims.try_claim("a" * 32)
        claims.mark_done("b" * 32, started=0.0, finished=1.0)
        claims.mark_failed("d" * 32, error="E", traceback_text="T")
        assert list(claims.claim_records()) == ["a" * 32]
        assert list(claims.done_records()) == ["b" * 32]
        assert list(claims.failed_records()) == ["d" * 32]


class TestConcurrentClaiming:
    def test_racing_threads_yield_exactly_one_winner(self, backend):
        """Satellite: two (here: eight) racers on one cell, one winner."""
        winners = []
        barrier = threading.Barrier(8)

        def racer(pid: int) -> None:
            claims = ClaimStore(backend, lease_seconds=60.0, host="racer", pid=pid)
            barrier.wait()
            record = claims.try_claim(KEY)
            if record is not None:
                winners.append(record)

        threads = [threading.Thread(target=racer, args=(pid,)) for pid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        stored = ClaimStore(backend, lease_seconds=60.0).read(KEY)
        assert stored.pid == winners[0].pid

    def test_racing_reclaimers_yield_exactly_one_winner(self, backend):
        """Racing reclaimers end with exactly one *holder*.

        ``try_claim`` itself can hand a record to more than one of them:
        the ABA window it documents — reclaimer B renames away A's fresh
        claim, and a third racer's plain create lands in the empty slot
        before B hands A's text back — makes A and the third both
        "winners" for a moment (about one trial in three on a 2-vCPU
        box).  What the protocol guarantees is that the slot settles on
        one of them and every other winner finds out at its next renew;
        double execution in between is harmless because cells are
        write-once and byte-deterministic (``docs/sweep_distributed.md``).
        """
        for trial in range(50):
            key = f"{trial:032x}"
            dead = ClaimStore(backend, lease_seconds=1e-9, host="dead-host", pid=1)
            assert dead.try_claim(key) is not None
            winners = []
            barrier = threading.Barrier(8)

            def reclaimer(pid: int) -> None:
                claims = ClaimStore(
                    backend, lease_seconds=60.0, host="reclaimer", pid=pid
                )
                barrier.wait()
                record = claims.try_claim(key)
                if record is not None:
                    winners.append(record)

            threads = [
                threading.Thread(target=reclaimer, args=(pid,)) for pid in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert len(winners) >= 1
            claims = ClaimStore(backend, lease_seconds=60.0)
            holders = []
            for record in winners:
                try:
                    claims.renew(record)
                except ClaimLost:
                    continue
                holders.append(record)
            assert len(holders) == 1
            assert claims.read(key).pid == holders[0].pid

    def test_racing_claims_across_many_keys_partition_cleanly(self, backend):
        keys = [f"{index:032x}" for index in range(10)]
        owners = {}
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def worker(pid: int) -> None:
            claims = ClaimStore(backend, lease_seconds=60.0, host="w", pid=pid)
            barrier.wait()
            for key in keys:
                record = claims.try_claim(key)
                if record is not None:
                    with lock:
                        assert key not in owners
                        owners[key] = pid

        threads = [threading.Thread(target=worker, args=(pid,)) for pid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(owners) == sorted(keys)  # every key claimed exactly once

    def test_claim_file_contents_are_the_documented_schema(self, backend):
        claims = ClaimStore(backend, lease_seconds=60.0, host="h", pid=9)
        claims.try_claim(KEY)
        raw = json.loads(backend.read_text(f"claims/{KEY}.claim"))
        assert set(raw) == {
            "key", "host", "pid", "started", "lease_expiry", "renewals", "reclaimed",
        }
        assert raw["host"] == "h" and raw["pid"] == 9
