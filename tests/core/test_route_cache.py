"""Tests for the residual route-value cache and its engine integration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    BestResponsePolicy,
    DelayMetricProvider,
    EgoistEngine,
    ResidualRouteCache,
)
from repro.netsim.delayspace import DelaySpace
from repro.util.validation import ValidationError


class TestResidualRouteCache:
    def test_token_and_hops_must_match(self):
        cache = ResidualRouteCache(max_entries=4)
        matrix = np.arange(6.0).reshape(2, 3)
        cache.set_token(("v1",))
        cache.put(0, (1, 2), matrix)
        assert cache.get(0, (1, 2)) is matrix
        assert cache.get(0, (1, 3)) is None  # different hops
        cache.set_token(("v2",))
        assert cache.get(0, (1, 2)) is None  # stale token
        assert cache.hits == 1
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = ResidualRouteCache(max_entries=2)
        cache.set_token("t")
        for node in range(3):
            cache.put(node, (1,), np.zeros((1, 1)))
        assert len(cache) == 2
        assert cache.get(0, (1,)) is None  # evicted as oldest
        assert cache.get(2, (1,)) is not None

    def test_invalidate_clears_entries(self):
        cache = ResidualRouteCache()
        cache.set_token("t")
        cache.put(0, (1,), np.zeros((1, 1)))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get(0, (1,)) is None

    def test_stats_and_hit_rate(self):
        cache = ResidualRouteCache()
        assert cache.hit_rate == 0.0
        cache.set_token("t")
        cache.put(0, (1,), np.zeros((1, 1)))
        cache.get(0, (1,))
        cache.get(1, (1,))
        stats = cache.stats()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 1.0
        assert cache.hit_rate == pytest.approx(0.5)

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValidationError):
            ResidualRouteCache(max_entries=0)


def make_engine(route_cache_size, *, n=12, seed=9):
    rng = np.random.default_rng(77)
    matrix = rng.uniform(5.0, 120.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)
    provider = DelayMetricProvider(DelaySpace(matrix, jitter_std=0.0), estimator="true")
    return EgoistEngine(
        provider,
        BestResponsePolicy(),
        k=2,
        seed=seed,
        route_cache_size=route_cache_size,
    )


def record_key(record):
    return tuple(
        None if isinstance(v, float) and math.isnan(v) else v
        for v in (
            record.epoch,
            record.time,
            record.active_nodes,
            record.rewirings,
            record.mean_cost,
            record.mean_efficiency,
            record.social_cost,
            record.linkstate_bits,
        )
    )


class TestEngineIntegration:
    def test_cache_disabled_with_size_zero(self):
        engine = make_engine(0)
        assert engine.route_cache is None
        engine.run(2)  # still runs fine without the cache

    def test_cache_defaults_to_deployment_size(self):
        engine = make_engine(None)
        assert engine.route_cache is not None
        assert engine.route_cache.max_entries == engine.n

    def test_cached_and_uncached_runs_are_identical(self):
        cached = make_engine(None).run(4).records
        uncached = make_engine(0).run(4).records
        assert [record_key(r) for r in cached] == [record_key(r) for r in uncached]

    def test_quiescent_epochs_hit_the_cache(self):
        """Once best-response dynamics converge with a static announced
        metric, a whole epoch's residual sweeps come from the cache."""
        engine = make_engine(None)
        engine.run(6)  # long enough to converge at this scale
        before = engine.route_cache.hits
        misses_before = engine.route_cache.misses
        engine.run_epoch()
        assert engine.route_cache.hits - before == engine.n
        assert engine.route_cache.misses == misses_before


class TestSpeculativeTokens:
    """The engine batch's speculative weight-refresh chains stamp entries
    with *predicted* tokens (``put(token=...)``) and revoke mispredictions
    with ``drop``; these exercise that path directly (it landed with only
    indirect parity coverage)."""

    def test_put_with_explicit_token_matches_only_once_state_materialises(self):
        cache = ResidualRouteCache(max_entries=4)
        matrix = np.ones((1, 3))
        cache.set_token(("v1", "fp", (0, 1, 2)))
        predicted = ("v1", "fp-next", (0, 1, 2))  # in-place re-announce predicted
        cache.put(0, (1, 2), matrix, token=predicted)
        # Not valid under the current token...
        assert cache.get(0, (1, 2)) is None
        # ...but valid verbatim once the predicted state becomes current.
        cache.set_token(predicted)
        assert cache.get(0, (1, 2)) is matrix

    def test_put_without_token_still_stamps_the_current_token(self):
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token("now")
        cache.put(0, (1,), np.zeros((1, 1)))
        assert cache.get(0, (1,)) is not None

    def test_rewire_invalidates_unrealised_speculative_entries(self):
        """A re-wire bumps the wiring version: the predicted token never
        becomes current, so speculative entries must never hit."""
        cache = ResidualRouteCache(max_entries=8)
        cache.set_token(("version-7", "fp", (0, 1)))
        cache.put(3, (0, 1), np.full((2, 2), 3.0), token=("version-7", "fp2", (0, 1)))
        # The re-wire: state jumps to version-8 with a fresh fingerprint.
        cache.set_token(("version-8", "fp3", (0, 1)))
        assert cache.get(3, (0, 1)) is None
        # The engine batch drops the pending entry; a later put under the
        # real token repopulates cleanly.
        cache.drop(3)
        assert len(cache) == 0
        cache.put(3, (0, 1), np.full((2, 2), 8.0))
        assert float(cache.get(3, (0, 1))[0, 0]) == 8.0

    def test_drop_is_per_node_and_tolerates_absent_nodes(self):
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token("t")
        cache.put(0, (1,), np.zeros((1, 1)))
        cache.put(1, (0,), np.zeros((1, 1)))
        cache.drop(0)
        cache.drop(42)  # never stored: a no-op, not an error
        assert cache.get(0, (1,)) is None
        assert cache.get(1, (0,)) is not None

    def test_churn_epoch_membership_change_invalidates_speculative_entries(self):
        """Tokens embed the active membership: a churn-driven join/leave
        changes the hop universe, so entries predicted for the old
        membership must miss even if wiring version and metric agree."""
        cache = ResidualRouteCache(max_entries=8)
        old_members = (0, 1, 2, 3)
        new_members = (0, 1, 3)  # node 2 departed this epoch
        cache.set_token(("v1", "fp", old_members))
        cache.put(0, (1, 2), np.ones((2, 4)), token=("v2", "fp", old_members))
        cache.set_token(("v2", "fp", new_members))
        assert cache.get(0, (1, 2)) is None
        # Re-wiring against the new membership uses the survivors' hops.
        cache.put(0, (1, 3), np.ones((2, 3)))
        assert cache.get(0, (1, 3)) is not None
        assert cache.get(0, (1, 2)) is None  # stale hop tuple stays dead

    def test_speculative_chain_across_epochs(self):
        """A quiescent drift epoch: entries predicted at epoch e for epoch
        e+1 hit exactly once, then the next prediction takes over."""
        cache = ResidualRouteCache(max_entries=4)
        members = (0, 1)
        tokens = [("v1", f"fp{i}", members) for i in range(3)]
        cache.set_token(tokens[0])
        cache.put(0, (1,), np.full((1, 2), 1.0), token=tokens[1])
        cache.set_token(tokens[1])
        assert cache.get(0, (1,)) is not None
        cache.put(0, (1,), np.full((1, 2), 2.0), token=tokens[2])
        cache.set_token(tokens[2])
        hit = cache.get(0, (1,))
        assert hit is not None and float(hit[0, 0]) == 2.0

    def test_lru_eviction_applies_to_speculative_entries_too(self):
        cache = ResidualRouteCache(max_entries=2)
        cache.set_token("now")
        for node in range(3):
            cache.put(node, (9,), np.zeros((1, 1)), token="later")
        cache.set_token("later")
        assert cache.get(0, (9,)) is None  # evicted as oldest
        assert cache.get(1, (9,)) is not None
        assert cache.get(2, (9,)) is not None


class TestRepairPath:
    """The additive repair primitive the benchmark probe still times.

    No engine path calls ``repair``: a stale entry is recomputed, not
    patched.  These pin what the reduced primitive does.
    """

    @staticmethod
    def _line_dense(n, weight=1.0):
        dense = np.full((n, n), np.nan)
        for i in range(n - 1):
            dense[i, i + 1] = weight
        return dense

    @staticmethod
    def _fresh_rows(dense, sources):
        from repro.routing.graph import OverlayGraph
        from repro.routing.shortest_path import shortest_path_costs_multi

        graph = OverlayGraph(dense.shape[0])
        for u in range(dense.shape[0]):
            for v in range(dense.shape[0]):
                if not np.isnan(dense[u, v]):
                    graph.add_edge(u, v, float(dense[u, v]))
        return shortest_path_costs_multi(graph, list(sources))

    def test_hit_rate_is_zero_before_any_lookup(self):
        cache = ResidualRouteCache(max_entries=4)
        assert cache.hit_rate == 0.0
        assert not math.isnan(cache.hit_rate)
        stats = cache.stats()
        assert stats["hit_rate"] == 0.0
        assert stats["hits"] == 0.0 and stats["misses"] == 0.0

    def test_stats_include_repair_counters(self):
        cache = ResidualRouteCache(max_entries=4)
        stats = cache.stats()
        assert stats["repairs"] == 0.0
        assert stats["restamps"] == 0.0

    def test_repair_updates_matrix_and_token(self):
        n = 5
        old_dense = self._line_dense(n)
        sources = [0, 1, 2, 4]  # the residual of node 3
        old_dense[3, :] = np.nan
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token(("old",))
        cache.put(3, tuple(sources), self._fresh_rows(old_dense, sources))
        # Node 1 re-wires: 1 -> 3 replaces 1 -> 2.
        new_dense = old_dense.copy()
        new_dense[1, :] = np.nan
        new_dense[1, 3] = 0.5
        cache.set_token(("new",))
        repaired = cache.repair(3, {1}, new_dense, maximize=False)
        assert np.array_equal(repaired, self._fresh_rows(new_dense, sources))
        assert cache.repairs == 1
        assert cache.get(3, tuple(sources)) is not None  # current token now
        assert cache.hits == 1

    def test_repair_with_empty_delta_restamps(self):
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token(("old",))
        matrix = np.ones((2, 4))
        cache.put(1, (0, 2), matrix)
        cache.set_token(("new",))
        assert cache.get(1, (0, 2)) is None  # stale
        out = cache.repair(1, set(), None, maximize=False)
        assert out is matrix
        assert cache.restamps == 1 and cache.repairs == 0
        assert cache.get(1, (0, 2)) is not None

    def test_speculative_token_collision_still_repairs(self):
        # A speculative entry's predicted token can equal the real
        # current token while describing a wiring that never happened (a
        # re-wire bumps the version by one, exactly like the predicted
        # refresh it displaced); repair must not trust the stamp and
        # must run the asserted delta anyway.
        n = 5
        predicted = self._line_dense(n)  # node 1 keeps 1 -> 2 (the prediction)
        predicted[3, :] = np.nan
        sources = [0, 1, 2, 4]
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token(("v7",))
        cache.put(3, tuple(sources), self._fresh_rows(predicted, sources), token=("v7",))
        # Reality: node 1 re-wired to 3 instead — same version number.
        actual = predicted.copy()
        actual[1, :] = np.nan
        actual[1, 3] = 0.25
        repaired = cache.repair(3, {1}, actual, maximize=False)
        assert np.array_equal(repaired, self._fresh_rows(actual, sources))

    def test_max_min_entry_with_a_delta_is_dropped_and_counted(self):
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token(("old",))
        cache.put(3, (0, 1), np.ones((2, 4)))
        cache.set_token(("new",))
        assert cache.repair(3, {1}, np.full((4, 4), np.nan), maximize=True) is None
        assert len(cache) == 0
        assert cache.drops == 1
        assert cache.repairs == 0 and cache.restamps == 0
        # Its own links are outside its residual: an empty effective
        # delta only moves the stamp, whatever the metric family.
        matrix = np.ones((2, 4))
        cache.put(3, (0, 1), matrix, token=("old",))
        assert cache.repair(3, {3}, None, maximize=True) is matrix
        assert cache.restamps == 1
        assert cache.get(3, (0, 1)) is matrix


class TestDropsCounter:
    """Every way an entry leaves the cache early shows up in ``drops``."""

    def test_lru_eviction_counts_drops(self):
        cache = ResidualRouteCache(max_entries=2)
        cache.set_token("t")
        for node in range(4):
            cache.put(node, (1,), np.zeros((1, 1)))
        assert cache.drops == 2
        assert cache.stats()["drops"] == 2.0

    def test_explicit_drop_counts_once(self):
        cache = ResidualRouteCache(max_entries=4)
        cache.set_token("t")
        cache.put(0, (1,), np.zeros((1, 1)))
        cache.drop(0)
        cache.drop(0)  # absent: not a drop
        cache.drop(99)  # never present: not a drop
        assert cache.drops == 1

    def test_fresh_cache_reports_zero_drops(self):
        stats = ResidualRouteCache().stats()
        assert stats["drops"] == 0.0
        assert "drops" in stats
