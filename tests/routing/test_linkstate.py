"""Tests for the link-state protocol simulation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing.linkstate import LinkStateProtocol
from repro.routing.messages import announcement_size_bits, delivery_outcomes


class TestHeldTable:
    """What each recipient holds, read through ``view_of``."""

    def test_insert_and_build(self):
        protocol = LinkStateProtocol(4)
        protocol.broadcast(0, {1: 5.0})
        protocol.broadcast(1, {2: 7.0})
        graph = protocol.view_of(3)
        assert graph.weight(0, 1) == 5.0
        assert graph.weight(1, 2) == 7.0

    def test_fresher_announcement_replaces(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.broadcast(0, {2: 2.0})
        graph = protocol.view_of(1)
        assert graph.has_edge(0, 2)
        assert not graph.has_edge(0, 1)

    def test_residual_graph_excludes_origin(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.broadcast(1, {2: 1.0})
        residual = protocol.view_of(2, residual_for=0)
        assert not residual.has_edge(0, 1)
        assert residual.has_edge(1, 2)

    def test_purge_forgets_origin_everywhere(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.purge(0)
        assert all(protocol.view_of(i).edge_count() == 0 for i in range(3))
        assert all(held is None for held in protocol.held.flat)

    def test_inactive_node_hears_nothing(self):
        protocol = LinkStateProtocol(4)
        protocol.broadcast(0, {1: 5.0}, active=[0, 1])
        protocol.broadcast(3, {0: 2.0}, active=[0, 1])
        assert protocol.view_of(2).edge_count() == 0
        # The origin always keeps its own announcement, active or not.
        assert protocol.view_of(3).has_edge(3, 0)
        assert not protocol.view_of(3).has_edge(0, 1)

    def test_lossy_recipient_keeps_the_previous_announcement(self):
        protocol = LinkStateProtocol(6)
        protocol.broadcast(0, {1: 1.0})
        protocol.configure_loss(0.5, np.random.default_rng(4))
        fate = delivery_outcomes(np.random.default_rng(4), 5, 0.5)
        assert fate.any() and not fate.all()
        protocol.broadcast(0, {2: 2.0})
        for recipient, delivered in zip(range(1, 6), fate):
            view = protocol.view_of(recipient)
            assert view.has_edge(0, 2) == bool(delivered)
            assert view.has_edge(0, 1) == (not delivered)
        assert protocol.stats.announcements_lost == int((~fate).sum())


class TestLinkStateProtocol:
    def test_broadcast_reaches_active_nodes(self):
        protocol = LinkStateProtocol(4)
        protocol.broadcast(0, {1: 5.0}, active=[0, 1, 2])
        assert protocol.view_of(1).has_edge(0, 1)
        assert protocol.view_of(2).has_edge(0, 1)
        # Node 3 was not active and never received the flood.
        assert not protocol.view_of(3).has_edge(0, 1)

    def test_sequence_numbers_increase(self):
        protocol = LinkStateProtocol(3)
        a = protocol.broadcast(0, {1: 1.0})
        b = protocol.broadcast(0, {2: 1.0})
        assert b.sequence > a.sequence

    def test_withdraw_clears_links(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.broadcast(0, {})
        assert not protocol.view_of(1).has_edge(0, 1)

    def test_purge_removes_state_without_flood(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.purge(0)
        assert not protocol.view_of(2).has_edge(0, 1)
        assert protocol.stats.announcements_sent == 1

    def test_residual_view(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0})
        protocol.broadcast(1, {2: 1.0})
        residual = protocol.view_of(0, residual_for=0)
        assert not residual.has_edge(0, 1)
        assert residual.has_edge(1, 2)

    def test_stats_accumulate(self):
        protocol = LinkStateProtocol(3)
        protocol.broadcast(0, {1: 1.0, 2: 2.0})
        assert protocol.stats.announcements_sent == 1
        assert protocol.stats.announcement_bits == 192 + 32 * 2
        assert protocol.stats.flood_deliveries == 3

    def test_newcomer_learns_full_topology(self):
        """A node that only hears the flood still reconstructs everyone's links."""
        protocol = LinkStateProtocol(5)
        for node in range(4):
            protocol.broadcast(node, {(node + 1) % 4: 1.0})
        view = protocol.view_of(4)
        assert view.edge_count() == 4


class _PerNodeDatabases:
    """The old semantics, spelled out: one origin -> links dict per node."""

    def __init__(self, n, loss, rng):
        self.n, self.loss, self.rng = n, loss, rng
        self.db = [{} for _ in range(n)]
        self.deliveries = self.lost = self.bits = 0

    def broadcast(self, origin, links, active):
        others = sorted(set(active) - {origin})
        if self.loss > 0.0:
            fate = delivery_outcomes(self.rng, len(others), self.loss)
            self.lost += int((~fate).sum())
            others = [node for node, kept in zip(others, fate) if kept]
        for node in others + [origin]:
            self.db[node][origin] = dict(links)
        self.deliveries += len(others) + 1
        self.bits += announcement_size_bits(len(links))

    def purge(self, origin):
        for held in self.db:
            held.pop(origin, None)

    def edges(self, node):
        return sorted(
            (origin, v, c)
            for origin, links in self.db[node].items()
            for v, c in links.items()
            if v != origin
        )


N = 7

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("broadcast"),
            st.integers(0, N - 1),
            st.dictionaries(st.integers(0, N - 1), st.floats(0.5, 50.0), max_size=3),
            st.sets(st.integers(0, N - 1)),
        ),
        st.tuples(st.just("purge"), st.integers(0, N - 1)),
    ),
    max_size=30,
)


class TestHeldTableModel:
    @settings(max_examples=60, deadline=None)
    @given(_OPS, st.sampled_from([0.0, 0.3]), st.integers(0, 1000))
    def test_table_matches_per_node_databases(self, ops, loss, seed):
        protocol = LinkStateProtocol(N)
        if loss > 0.0:
            protocol.configure_loss(loss, np.random.default_rng(seed))
        model = _PerNodeDatabases(N, loss, np.random.default_rng(seed))
        for op in ops:
            if op[0] == "broadcast":
                _, origin, links, active = op
                protocol.broadcast(origin, links, active=sorted(active))
                model.broadcast(origin, links, active)
            else:
                protocol.purge(op[1])
                model.purge(op[1])
        for node in range(N):
            assert sorted(protocol.view_of(node).edges()) == model.edges(node)
        assert protocol.stats.flood_deliveries == model.deliveries
        assert protocol.stats.announcements_lost == model.lost
        assert protocol.stats.announcement_bits == model.bits
