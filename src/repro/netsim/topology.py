"""Underlay topology generators.

The paper's sampling experiments also use "synthetic topologies from BRITE
and real AS topologies".  BRITE's two flagship models are Waxman random
graphs and Barabási–Albert preferential attachment; both are provided here,
together with a helper that converts an edge-weighted underlay graph into
the all-pairs :class:`~repro.netsim.delayspace.DelaySpace` the overlay
operates on (overlay link delay = underlay shortest-path delay).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.netsim.delayspace import DelaySpace
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError

if TYPE_CHECKING:
    import networkx as nx


def waxman_underlay(
    n: int,
    *,
    alpha: float = 0.4,
    beta: float = 0.1,
    domain_size: float = 100.0,
    min_delay_ms: float = 1.0,
    seed: SeedLike = None,
) -> nx.Graph:
    """Generate a Waxman random-graph underlay (BRITE's flat router model).

    Nodes are placed uniformly in a ``domain_size`` x ``domain_size`` square;
    an edge between ``u`` and ``v`` at Euclidean distance ``d`` exists with
    probability ``alpha * exp(-d / (beta * L))`` where ``L`` is the maximum
    possible distance.  Edge weights (``delay_ms``) are proportional to
    distance, with a floor of ``min_delay_ms``.  The graph is patched to be
    connected by adding minimum-distance edges between components.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    import networkx as nx

    rng = as_generator(seed)
    positions = rng.uniform(0.0, domain_size, size=(n, 2))
    graph = nx.Graph()
    for i in range(n):
        graph.add_node(i, pos=(float(positions[i, 0]), float(positions[i, 1])))
    max_dist = domain_size * np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            prob = alpha * np.exp(-dist / (beta * max_dist))
            if rng.random() < prob:
                graph.add_edge(i, j, delay_ms=max(min_delay_ms, dist))
    _connect_components(graph, positions, min_delay_ms)
    return graph


def barabasi_albert_underlay(
    n: int,
    m: int = 2,
    *,
    mean_edge_delay_ms: float = 10.0,
    seed: SeedLike = None,
) -> nx.Graph:
    """Generate a Barabási–Albert preferential-attachment underlay.

    Edge delays are drawn from an exponential distribution with mean
    ``mean_edge_delay_ms``, reflecting the mix of short metro links and
    longer transit links in AS-level topologies.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if not 1 <= m < n:
        raise ValidationError(f"m must satisfy 1 <= m < n, got m={m}, n={n}")
    import networkx as nx

    rng = as_generator(seed)
    graph = nx.barabasi_albert_graph(n, m, seed=int(rng.integers(0, 2**31 - 1)))
    for u, v in graph.edges:
        graph.edges[u, v]["delay_ms"] = float(
            max(0.5, rng.exponential(mean_edge_delay_ms))
        )
    return graph


def _connect_components(
    graph: nx.Graph, positions: np.ndarray, min_delay_ms: float
) -> None:
    """Stitch disconnected components together with nearest-pair edges."""
    import networkx as nx

    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        base = components[0]
        other = components[1]
        best = None
        for u in base:
            for v in other:
                dist = float(np.linalg.norm(positions[u] - positions[v]))
                if best is None or dist < best[2]:
                    best = (u, v, dist)
        u, v, dist = best
        graph.add_edge(u, v, delay_ms=max(min_delay_ms, dist))
        components = [list(c) for c in nx.connected_components(graph)]


def delay_matrix_from_underlay(
    graph: nx.Graph,
    *,
    weight: str = "delay_ms",
    overlay_nodes: Optional[list] = None,
    jitter_std: float = 0.0,
) -> DelaySpace:
    """Build a :class:`DelaySpace` from an underlay graph.

    The delay between two overlay endpoints is the weight of the shortest
    underlay path between them — i.e. the delay of the IP path that an
    overlay link would ride over.

    Parameters
    ----------
    graph:
        Underlay graph whose edges carry a ``weight`` attribute in ms.
    weight:
        Name of the edge attribute holding the delay.
    overlay_nodes:
        Subset of underlay nodes that host overlay nodes; defaults to all.
    jitter_std:
        Measurement jitter passed through to the resulting delay space.
    """
    import networkx as nx

    if overlay_nodes is None:
        overlay_nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(overlay_nodes)}
    n = len(overlay_nodes)
    matrix = np.zeros((n, n), dtype=float)
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight=weight))
    for src in overlay_nodes:
        row = lengths.get(src, {})
        for dst in overlay_nodes:
            if src == dst:
                continue
            if dst not in row:
                raise ValidationError(
                    "underlay graph is disconnected between overlay nodes "
                    f"{src} and {dst}"
                )
            matrix[index[src], index[dst]] = row[dst]
    labels = [str(node) for node in overlay_nodes]
    return DelaySpace(matrix, labels=labels, jitter_std=jitter_std)
