"""The overlay graph: a directed, weighted adjacency structure.

:class:`OverlayGraph` is the common currency between the wiring policies
(:mod:`repro.core`), the routing algorithms (:mod:`repro.routing`), and the
link-state protocol.  It is a thin, fast structure over per-node adjacency
dictionaries with conversion to/from :mod:`networkx` for interoperability
and debugging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.util.validation import ValidationError, check_index

if TYPE_CHECKING:
    import networkx as nx


class OverlayGraph:
    """A directed overlay topology with weighted edges.

    Nodes are integers ``0 .. n-1``; a directed edge ``(u, v)`` carries a
    single float weight (delay in ms, node load, or available bandwidth in
    Mbps depending on the metric in use).

    Parameters
    ----------
    n:
        Number of overlay nodes.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self._succ: List[Dict[int, float]] = [dict() for _ in range(self.n)]
        self._pred: List[Set[int]] = [set() for _ in range(self.n)]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add (or overwrite) the directed edge ``u -> v`` with ``weight``."""
        check_index(u, self.n, "u")
        check_index(v, self.n, "v")
        if u == v:
            raise ValidationError("self-loops are not allowed in the overlay")
        weight = float(weight)
        if weight < 0:
            raise ValidationError("edge weights must be non-negative")
        self._succ[u][v] = weight
        self._pred[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the directed edge ``u -> v`` (no-op if absent)."""
        if v in self._succ[u]:
            del self._succ[u][v]
            self._pred[v].discard(u)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        return v in self._succ[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v`` (KeyError if absent)."""
        return self._succ[u][v]

    def successors(self, u: int) -> Dict[int, float]:
        """Mapping of out-neighbours of ``u`` to edge weights (a copy)."""
        return dict(self._succ[u])

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return len(self._succ[u])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        return len(self._pred[v])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all edges as ``(u, v, weight)``."""
        for u in range(self.n):
            for v, w in self._succ[u].items():
                yield (u, v, w)

    def edge_count(self) -> int:
        """Total number of directed edges."""
        return sum(len(s) for s in self._succ)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_weight_maps(
        cls, n: int, rows: Iterable[Tuple[int, Dict[int, float]]]
    ) -> "OverlayGraph":
        """Trusted bulk constructor from ``(node, {neighbor: weight})`` rows.

        Skips the per-edge validation of :meth:`add_edge`, so callers must
        supply pre-validated contents: indices in range, no self-loops,
        non-negative float weights (:class:`~repro.core.wiring.GlobalWiring`
        guarantees all three).  This is the fast path behind the engine's
        per-node residual-graph construction.
        """
        graph = cls(n)
        succ = graph._succ
        pred = graph._pred
        for u, weights in rows:
            if not weights:
                continue
            row = succ[u]
            row.update(weights)
            for v in row:
                pred[v].add(u)
        return graph

    def copy(self) -> "OverlayGraph":
        """Deep copy."""
        clone = OverlayGraph.__new__(OverlayGraph)
        clone.n = self.n
        clone._succ = [dict(row) for row in self._succ]
        clone._pred = [set(preds) for preds in self._pred]
        return clone

    def without_node_out_edges(self, node: int) -> "OverlayGraph":
        """Copy with ``node``'s *outgoing* edges removed.

        This is the residual graph ``G_{-i}`` a node reasons over when
        computing its best response: everyone else's wiring stays, its own
        outgoing links are up for re-selection.
        """
        clone = self.copy()
        for v in list(clone._succ[node]):
            clone.remove_edge(node, v)
        return clone

    def restricted(self, active: Iterable[int]) -> "OverlayGraph":
        """Copy with edges only among the ``active`` node set.

        Node identifiers are preserved; edges touching inactive nodes are
        dropped.  Used under churn, where OFF nodes take their links with
        them.
        """
        active_set = set(active)
        clone = OverlayGraph(self.n)
        for u, v, w in self.edges():
            if u in active_set and v in active_set:
                clone.add_edge(u, v, w)
        return clone

    def to_adjacency_matrix(self, absent: float = np.inf) -> np.ndarray:
        """Dense weight matrix with ``absent`` for missing edges, 0 diagonal."""
        mat = np.full((self.n, self.n), absent, dtype=float)
        np.fill_diagonal(mat, 0.0)
        for u, v, w in self.edges():
            mat[u, v] = w
        return mat

    def to_networkx(self) -> nx.DiGraph:
        """Convert to a :class:`networkx.DiGraph` with ``weight`` attributes."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.n))
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    # ------------------------------------------------------------------ #
    # Connectivity helpers
    # ------------------------------------------------------------------ #
    def reachable_from(self, src: int) -> Set[int]:
        """Set of nodes reachable from ``src`` by directed paths (incl. src)."""
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for v in self._succ[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_strongly_connected(self, nodes: Optional[Iterable[int]] = None) -> bool:
        """True if every node (in ``nodes``) can reach every other.

        The full-membership case runs one csgraph Tarjan pass (C speed)
        instead of ``n`` Python traversals; node subsets keep the
        per-source reachability loop.
        """
        node_list = list(nodes) if nodes is not None else list(range(self.n))
        if len(node_list) <= 1:
            return True
        if len(set(node_list)) == self.n:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import connected_components

            rows: List[int] = []
            cols: List[int] = []
            for u in range(self.n):
                succ = self._succ[u]
                rows.extend([u] * len(succ))
                cols.extend(succ.keys())
            matrix = csr_matrix(
                (np.ones(len(rows), dtype=np.int8), (rows, cols)),
                shape=(self.n, self.n),
            )
            count, _labels = connected_components(
                matrix, directed=True, connection="strong"
            )
            return int(count) == 1
        target = set(node_list)
        for src in node_list:
            if not target.issubset(self.reachable_from(src)):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayGraph(n={self.n}, edges={self.edge_count()})"
