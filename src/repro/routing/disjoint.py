"""Disjoint overlay paths.

The real-time traffic application of Section 6.2 sends redundant copies of
a stream over multiple *disjoint* overlay paths so that at least one copy
arrives before the playout deadline.  Fig. 11 reports how the number of
disjoint paths between a source and target grows with the neighbour budget
``k``.

We compute edge-disjoint (optionally internally-vertex-disjoint) paths that
are additionally constrained to leave the source through *distinct
first-hop neighbours*, matching the application's use of its k first-hop
EGOIST neighbours as redirection points.  Counting is done via max-flow on
a unit-capacity transformation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError, check_index

if TYPE_CHECKING:
    import networkx as nx


def _unit_capacity_digraph(
    graph: OverlayGraph, vertex_disjoint: bool
) -> nx.DiGraph:
    """Build a unit-capacity digraph (with node splitting if vertex-disjoint)."""
    import networkx as nx

    flow_graph = nx.DiGraph()
    if vertex_disjoint:
        # Split every node v into v_in -> v_out with capacity 1 so that at
        # most one path may traverse it.
        for node in range(graph.n):
            flow_graph.add_edge(f"{node}_in", f"{node}_out", capacity=1)
        for u, v, _w in graph.edges():
            flow_graph.add_edge(f"{u}_out", f"{v}_in", capacity=1)
    else:
        for u, v, _w in graph.edges():
            flow_graph.add_edge(u, v, capacity=1)
    return flow_graph


def count_disjoint_paths(
    graph: OverlayGraph,
    src: int,
    dst: int,
    *,
    vertex_disjoint: bool = False,
    max_paths: Optional[int] = None,
) -> int:
    """Number of edge- (or vertex-) disjoint directed paths ``src -> dst``.

    Parameters
    ----------
    graph:
        Overlay graph.
    src, dst:
        Endpoints (must differ).
    vertex_disjoint:
        If True, paths may not share intermediate nodes either.
    max_paths:
        Optional cap; useful when only "at least k" matters.
    """
    check_index(src, graph.n, "src")
    check_index(dst, graph.n, "dst")
    if src == dst:
        raise ValidationError("src and dst must differ")
    flow_graph = _unit_capacity_digraph(graph, vertex_disjoint)
    source = f"{src}_out" if vertex_disjoint else src
    target = f"{dst}_in" if vertex_disjoint else dst
    if source not in flow_graph or target not in flow_graph:
        return 0
    import networkx as nx

    value, _flow = nx.maximum_flow(flow_graph, source, target)
    value = int(value)
    if max_paths is not None:
        value = min(value, int(max_paths))
    return value


def disjoint_paths(
    graph: OverlayGraph,
    src: int,
    dst: int,
    *,
    vertex_disjoint: bool = False,
) -> List[List[int]]:
    """Extract a maximum set of disjoint paths as explicit node lists.

    The paths are reconstructed from a max-flow decomposition; each path is
    a list of overlay node ids starting at ``src`` and ending at ``dst``.
    """
    check_index(src, graph.n, "src")
    check_index(dst, graph.n, "dst")
    if src == dst:
        raise ValidationError("src and dst must differ")
    flow_graph = _unit_capacity_digraph(graph, vertex_disjoint)
    source = f"{src}_out" if vertex_disjoint else src
    target = f"{dst}_in" if vertex_disjoint else dst
    if source not in flow_graph or target not in flow_graph:
        return []
    import networkx as nx

    _value, flow = nx.maximum_flow(flow_graph, source, target)

    # Build the residual "used edge" adjacency from the flow assignment.
    used = {}
    for u, targets in flow.items():
        for v, f in targets.items():
            if f > 0:
                used.setdefault(u, []).append(v)

    def _to_node(label) -> Optional[int]:
        if isinstance(label, int):
            return label
        name, _suffix = str(label).rsplit("_", 1)
        return int(name)

    paths: List[List[int]] = []
    while used.get(source):
        # Walk one unit of flow from source to target.
        walk = [source]
        current = source
        while current != target:
            nxt = used[current].pop()
            walk.append(nxt)
            current = nxt
        # Collapse split nodes and deduplicate consecutive repeats.
        collapsed: List[int] = []
        for label in walk:
            node = _to_node(label)
            if not collapsed or collapsed[-1] != node:
                collapsed.append(node)
        paths.append(collapsed)
    return paths
