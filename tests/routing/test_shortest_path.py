"""Tests for shortest-path routing."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import (
    all_pairs_shortest_costs,
    repair_shortest_rows,
    screen_shortest_repair,
    shortest_inbound_tables,
    average_path_stretch,
    path_cost,
    shortest_path,
    shortest_path_costs_from,
    shortest_path_costs_multi,
    shortest_path_tree,
)


def line_graph(weights):
    """0 -> 1 -> 2 ... with the given edge weights (directed)."""
    graph = OverlayGraph(len(weights) + 1)
    for i, w in enumerate(weights):
        graph.add_edge(i, i + 1, w)
    return graph


def random_overlay(n, k, seed):
    rng = np.random.default_rng(seed)
    graph = OverlayGraph(n)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, float(rng.uniform(1, 10)))
        for j in rng.choice([x for x in range(n) if x != i], size=k, replace=False):
            graph.add_edge(i, int(j), float(rng.uniform(1, 10)))
    return graph


class TestSingleSource:
    def test_line_costs(self):
        graph = line_graph([2.0, 3.0, 4.0])
        costs = shortest_path_costs_from(graph, 0)
        assert list(costs) == pytest.approx([0.0, 2.0, 5.0, 9.0])

    def test_unreachable_infinite_by_default(self):
        graph = line_graph([1.0])
        costs = shortest_path_costs_from(graph, 1)
        assert np.isinf(costs[0])

    def test_unreachable_custom_penalty(self):
        graph = line_graph([1.0])
        costs = shortest_path_costs_from(graph, 1, disconnection_cost=999.0)
        assert costs[0] == 999.0

    def test_multi_source(self):
        graph = line_graph([2.0, 3.0])
        costs = shortest_path_costs_multi(graph, [0, 1])
        assert costs.shape == (2, 3)
        assert costs[0, 2] == pytest.approx(5.0)
        assert costs[1, 2] == pytest.approx(3.0)

    def test_matches_networkx(self):
        graph = random_overlay(15, 3, seed=0)
        nxg = graph.to_networkx()
        ours = shortest_path_costs_from(graph, 0)
        theirs = nx.single_source_dijkstra_path_length(nxg, 0, weight="weight")
        for node, dist in theirs.items():
            assert ours[node] == pytest.approx(dist)


class TestPathExtraction:
    def test_shortest_path_nodes(self):
        graph = OverlayGraph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 3, 1.0)
        graph.add_edge(0, 2, 5.0)
        graph.add_edge(2, 3, 5.0)
        assert shortest_path(graph, 0, 3) == [0, 1, 3]

    def test_no_path_returns_none(self):
        graph = line_graph([1.0])
        assert shortest_path(graph, 1, 0) is None

    def test_path_cost_matches_distance(self):
        graph = random_overlay(12, 2, seed=1)
        path = shortest_path(graph, 0, 7)
        dist = shortest_path_costs_from(graph, 0)[7]
        assert path_cost(graph, path) == pytest.approx(dist)

    def test_tree_predecessors_consistent(self):
        graph = random_overlay(10, 2, seed=2)
        dist, pred = shortest_path_tree(graph, 0)
        for v in range(1, 10):
            if np.isfinite(dist[v]):
                parent = int(pred[v])
                assert dist[v] == pytest.approx(dist[parent] + graph.weight(parent, v))


class TestAllPairs:
    def test_diagonal_zero(self):
        graph = random_overlay(8, 2, seed=3)
        costs = all_pairs_shortest_costs(graph)
        assert np.all(np.diag(costs) == 0)

    def test_subset_sources(self):
        graph = random_overlay(8, 2, seed=4)
        costs = all_pairs_shortest_costs(graph, sources=[0, 1], disconnection_cost=1e6)
        full = all_pairs_shortest_costs(graph, disconnection_cost=1e6)
        assert np.allclose(costs[0], full[0])
        assert np.allclose(costs[1], full[1])
        # Untouched rows carry the disconnection cost off-diagonal.
        assert costs[5, 3] == 1e6

    def test_triangle_inequality_over_graph_metric(self):
        graph = random_overlay(12, 3, seed=5)
        costs = all_pairs_shortest_costs(graph)
        n = graph.n
        for i in range(n):
            for j in range(n):
                for k in range(0, n, 3):
                    assert costs[i, j] <= costs[i, k] + costs[k, j] + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 12), st.integers(1, 3))
    def test_more_edges_never_hurt(self, n, k):
        """Adding edges can only lower (or keep) shortest-path costs."""
        sparse = random_overlay(n, k, seed=n * 10 + k)
        dense = sparse.copy()
        rng = np.random.default_rng(n)
        for i in range(n):
            j = int(rng.integers(0, n))
            if i != j and not dense.has_edge(i, j):
                dense.add_edge(i, j, float(rng.uniform(1, 10)))
        sparse_costs = all_pairs_shortest_costs(sparse, disconnection_cost=1e9)
        dense_costs = all_pairs_shortest_costs(dense, disconnection_cost=1e9)
        assert np.all(dense_costs <= sparse_costs + 1e-9)


class TestStretch:
    def test_full_mesh_stretch_is_one(self):
        n = 6
        rng = np.random.default_rng(0)
        direct = rng.uniform(1, 10, size=(n, n))
        direct = (direct + direct.T) / 2
        np.fill_diagonal(direct, 0.0)
        graph = OverlayGraph(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    graph.add_edge(i, j, direct[i, j])
        # Costs may be lower than direct (two-hop shortcuts), never higher.
        assert average_path_stretch(graph, direct) <= 1.0 + 1e-9


def _dense_of(graph):
    dense = np.full((graph.n, graph.n), np.nan)
    for u, v, w in graph.edges():
        dense[u, v] = w
    return dense


def _rewire(dense, node, rng, *, zero_chance=0.0):
    """Replace ``node``'s out-links with a random new set (NaN-dense)."""
    n = dense.shape[0]
    new = dense.copy()
    new[node, :] = np.nan
    degree = int(rng.integers(0, min(n - 1, 4) + 1))
    if degree:
        targets = rng.choice([x for x in range(n) if x != node], size=degree, replace=False)
        for v in targets:
            weight = 0.0 if rng.random() < zero_chance else float(rng.uniform(0.5, 20.0))
            new[node, int(v)] = weight
    return new


def _graph_of(dense):
    graph = OverlayGraph(dense.shape[0])
    for u in range(dense.shape[0]):
        for v in range(dense.shape[0]):
            if not np.isnan(dense[u, v]):
                graph.add_edge(u, v, float(dense[u, v]))
    return graph


class TestRepairShortestRows:
    """The incremental dynamic-SSSP kernel vs fresh Dijkstra sweeps."""

    def test_single_rewire_bit_identical(self):
        rng = np.random.default_rng(7)
        graph = random_overlay(12, 2, seed=3)
        sources = list(range(12))
        old = shortest_path_costs_multi(graph, sources)
        new_dense = _rewire(_dense_of(graph), 4, rng)
        fresh = shortest_path_costs_multi(_graph_of(new_dense), sources)
        repaired = repair_shortest_rows(old, np.array(sources), [4], new_dense)
        assert np.array_equal(repaired, fresh)

    def test_empty_change_set_is_identity(self):
        graph = random_overlay(8, 2, seed=5)
        old = shortest_path_costs_multi(graph, list(range(8)))
        repaired = repair_shortest_rows(old, np.arange(8), [], _dense_of(graph))
        assert np.array_equal(repaired, old)

    def test_zero_weight_links_follow_the_csr_nudge(self):
        # Fresh sweeps nudge zero-cost links to 1e-12; a repair must
        # arrive at the same sums bit for bit.
        rng = np.random.default_rng(11)
        graph = random_overlay(10, 1, seed=9)
        sources = list(range(10))
        old = shortest_path_costs_multi(graph, sources)
        new_dense = _rewire(_dense_of(graph), 2, rng, zero_chance=0.8)
        fresh = shortest_path_costs_multi(_graph_of(new_dense), sources)
        repaired = repair_shortest_rows(old, np.array(sources), [2], new_dense)
        assert np.array_equal(repaired, fresh)

    def test_disconnections_and_reconnections(self):
        # Rewiring the ring node to nothing partitions the graph;
        # restoring links reconnects it — both directions must repair to
        # the fresh sweep exactly (inf convention included).
        graph = line_graph([1.0, 2.0, 3.0])
        sources = list(range(4))
        old = shortest_path_costs_multi(graph, sources)
        cut = _dense_of(graph)
        cut[1, :] = np.nan  # node 1 drops its only out-link
        fresh_cut = shortest_path_costs_multi(_graph_of(cut), sources)
        repaired_cut = repair_shortest_rows(old, np.array(sources), [1], cut)
        assert np.array_equal(repaired_cut, fresh_cut)
        restored = cut.copy()
        restored[1, 2] = 5.0
        fresh_restored = shortest_path_costs_multi(_graph_of(restored), sources)
        repaired_restored = repair_shortest_rows(
            repaired_cut, np.array(sources), [1], restored
        )
        assert np.array_equal(repaired_restored, fresh_restored)

    def test_shared_tables_and_exclude_match_residual_repair(self):
        # The exclude/tables form (one dense overlay shared by many
        # residual repairs) must agree with repairing an explicitly
        # materialised residual matrix.
        rng = np.random.default_rng(23)
        graph = random_overlay(11, 2, seed=13)
        dense = _dense_of(graph)
        excluded = 6
        residual = dense.copy()
        residual[excluded, :] = np.nan
        sources = [i for i in range(11) if i != excluded]
        old = shortest_path_costs_multi(_graph_of(residual), sources)
        new_dense = _rewire(dense, 3, rng)
        new_residual = new_dense.copy()
        new_residual[excluded, :] = np.nan
        fresh = shortest_path_costs_multi(_graph_of(new_residual), sources)
        direct = repair_shortest_rows(old, np.array(sources), [3], new_residual)
        tables = shortest_inbound_tables(new_dense)
        shared = repair_shortest_rows(
            old, np.array(sources), [3], None, exclude=excluded, tables=tables
        )
        assert np.array_equal(direct, fresh)
        assert np.array_equal(shared, fresh)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(4, 16),
        st.integers(1, 3),
        st.integers(0, 10_000),
        st.integers(1, 3),
    )
    def test_randomized_multi_rewire_parity(self, n, k, seed, changes):
        rng = np.random.default_rng(seed)
        graph = random_overlay(n, min(k, n - 2), seed=seed)
        sources = list(range(n))
        old = shortest_path_costs_multi(graph, sources)
        dense = _dense_of(graph)
        changed = rng.choice(n, size=min(changes, n), replace=False)
        for node in changed:
            dense = _rewire(dense, int(node), rng, zero_chance=0.1)
        fresh = shortest_path_costs_multi(_graph_of(dense), sources)
        repaired = repair_shortest_rows(old, np.array(sources), changed, dense)
        assert np.array_equal(repaired, fresh)


#: Link weights that make ties and near-ties the rule: small integers
#: (many equal-cost alternatives), zero (nudged to 1e-12 by the sweep),
#: and tenths whose float sums differ in the last bit by association
#: order (0.1 + 0.2 != 0.3).
_TIE_WEIGHTS = (0.0, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)


def _tie_rich_dense(n, rng, *, degree=3):
    dense = np.full((n, n), np.nan)
    for node in range(n):
        _tie_rich_rewire(dense, node, rng, degree=degree)
    return dense


def _tie_rich_rewire(dense, node, rng, *, degree=3):
    """Give ``node`` a fresh random out-link set (possibly none), in place."""
    n = dense.shape[0]
    dense[node, :] = np.nan
    others = [x for x in range(n) if x != node]
    count = int(rng.integers(0, min(degree, n - 1) + 1))
    for v in rng.choice(others, size=count, replace=False):
        dense[node, int(v)] = _TIE_WEIGHTS[int(rng.integers(len(_TIE_WEIGHTS)))]


def _fresh(dense, sources, exclude=None):
    if exclude is not None:
        dense = dense.copy()
        dense[exclude, :] = np.nan
    return shortest_path_costs_multi(_graph_of(dense), [int(s) for s in sources])


class TestRepairOnTieRichGraphs:
    """Property test of the triangle screen and the cell relaxation on
    inputs the uniform-random fixtures never produce."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(4, 14),
        st.integers(0, 100_000),
        st.integers(1, 3),
        st.sampled_from(["all", "subset"]),
        st.sampled_from(["none", "bystander", "derive"]),
    )
    def test_repair_equals_fresh_sweep_and_screen_covers_the_delta(
        self, n, seed, changes, source_mode, exclude_mode
    ):
        rng = np.random.default_rng(seed)
        dense = _tie_rich_dense(n, rng)
        changed = [int(c) for c in rng.choice(n, size=min(changes, n - 1), replace=False)]
        if source_mode == "all":
            sources = np.arange(n)
        else:
            # A strict subset, so changed nodes may be absent from it.
            sources = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        exclude = None
        if exclude_mode == "bystander":
            exclude = int(rng.choice([x for x in range(n) if x not in changed]))
        old = _fresh(dense, sources, exclude)
        if exclude_mode == "derive":
            # Residual rows out of all-pairs rows: the excluded node's
            # out-links are the change, the matrix itself stays put.
            changed = exclude = changed[0]
            steps = [(dense, [changed])]
        else:
            # Two steps over the same nodes: degree 0 is a legal draw, so
            # disconnect-then-reconnect sequences come up regularly.
            steps = []
            current = dense
            for _ in range(2):
                current = current.copy()
                for node in changed:
                    _tie_rich_rewire(current, node, rng)
                steps.append((current, changed))
        for new_dense, delta in steps:
            fresh = _fresh(new_dense, sources, exclude)
            tables = shortest_inbound_tables(new_dense)
            screen = screen_shortest_repair(old, sources, delta, tables, exclude=exclude)
            moved = ~((fresh == old) | (np.isnan(fresh) & np.isnan(old)))
            moved[np.isin(sources, delta)] = False  # recomputed outright
            assert not (moved & ~screen.suspect).any(), "the screen cleared a changed cell"
            assert np.array_equal(screen.rows[np.isin(sources, delta)],
                                  fresh[np.isin(sources, delta)])
            repaired = repair_shortest_rows(old, sources, delta, new_dense, exclude=exclude)
            assert np.array_equal(repaired, fresh)
            handed = repair_shortest_rows(
                old, sources, delta, None, exclude=exclude, tables=tables, screen=screen
            )
            assert np.array_equal(handed, fresh)
            old = fresh

    def test_equal_cost_paths_through_and_around_the_changed_node(self):
        # 0 -> 1 -> 3 and 0 -> 2 -> 3 both cost 2; node 1 drops its link.
        dense = np.full((4, 4), np.nan)
        dense[0, 1] = dense[0, 2] = dense[1, 3] = dense[2, 3] = 1.0
        sources = np.arange(4)
        old = _fresh(dense, sources)
        cut = dense.copy()
        cut[1, :] = np.nan
        screen = screen_shortest_repair(old, sources, [1], shortest_inbound_tables(cut))
        assert screen.suspect[0, 3]  # tied with the surviving path: still suspect
        assert not screen.suspect[0, 2] and not screen.suspect[2, 3]
        assert not screen.suspect[:, 1].any()  # the changed node's own column
        repaired = repair_shortest_rows(old, sources, [1], cut)
        assert np.array_equal(repaired, _fresh(cut, sources))
        assert repaired[0, 3] == 2.0

    def test_unreachable_cells_stay_clear_after_a_deletion(self):
        # Two components; a deletion inside one cannot touch inf cells.
        dense = np.full((5, 5), np.nan)
        dense[0, 1] = dense[1, 2] = 1.0
        dense[3, 4] = 1.0
        sources = np.arange(5)
        old = _fresh(dense, sources)
        cut = dense.copy()
        cut[1, :] = np.nan
        screen = screen_shortest_repair(old, sources, [1], shortest_inbound_tables(cut))
        assert screen.suspect.sum() == 1 and screen.suspect[0, 2]
        assert np.array_equal(
            repair_shortest_rows(old, sources, [1], cut), _fresh(cut, sources)
        )
