"""Real-time traffic over disjoint overlay paths (Section 6.2).

Delay- and loss-sensitive applications send additional copies of their
stream over multiple disjoint overlay paths so that at least one copy of
every packet beats the playout deadline.  The paper's initial result
(Fig. 11) is that the number of disjoint paths between a source and target
grows roughly linearly with the number of parallel connections k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.wiring import GlobalWiring
from repro.routing.disjoint import count_disjoint_paths, disjoint_paths
from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import path_cost
from repro.util.validation import ValidationError, check_index


@dataclass
class StreamPlan:
    """A redundancy plan for one real-time stream."""

    source: int
    target: int
    paths: List[List[int]] = field(default_factory=list)
    path_delays_ms: List[float] = field(default_factory=list)

    @property
    def redundancy(self) -> int:
        """Number of disjoint copies the stream is sent over."""
        return len(self.paths)

    def loss_survival_probability(self, per_path_loss: float) -> float:
        """Probability that at least one copy survives independent path loss."""
        if not 0.0 <= per_path_loss <= 1.0:
            raise ValidationError("per_path_loss must be in [0, 1]")
        if not self.paths:
            return 0.0
        return 1.0 - per_path_loss ** len(self.paths)


class RealTimeRedirectionApp:
    """Plan redundant real-time delivery over disjoint overlay paths."""

    def __init__(self, overlay: GlobalWiring):
        self.overlay = overlay
        self._graph = overlay.to_graph()

    @property
    def graph(self) -> OverlayGraph:
        """The overlay graph the application routes over."""
        return self._graph

    def disjoint_path_count(
        self, source: int, target: int, *, vertex_disjoint: bool = False
    ) -> int:
        """Number of disjoint overlay paths between ``source`` and ``target``."""
        return count_disjoint_paths(
            self._graph, source, target, vertex_disjoint=vertex_disjoint
        )

    def plan(self, source: int, target: int, *, copies: Optional[int] = None) -> StreamPlan:
        """Build a redundancy plan using up to ``copies`` disjoint paths."""
        check_index(source, self.overlay.n, "source")
        check_index(target, self.overlay.n, "target")
        if source == target:
            raise ValidationError("source and target must differ")
        paths = disjoint_paths(self._graph, source, target)
        # Prefer low-delay paths first.
        paths.sort(key=lambda p: path_cost(self._graph, p))
        if copies is not None:
            paths = paths[: int(copies)]
        delays = [path_cost(self._graph, p) for p in paths]
        return StreamPlan(
            source=source, target=target, paths=paths, path_delays_ms=delays
        )

    def mean_disjoint_paths(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> float:
        """Mean number of disjoint paths over the given source-target pairs."""
        counts = [
            self.disjoint_path_count(source, target) for source, target in pairs
        ]
        return float(np.mean(counts)) if counts else 0.0


def disjoint_path_count(
    overlay: GlobalWiring,
    *,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    rng=None,
    max_pairs: int = 200,
) -> Dict[str, float]:
    """Fig. 11 quantity: mean number of disjoint paths between node pairs."""
    from repro.util.rng import as_generator

    app = RealTimeRedirectionApp(overlay)
    n = overlay.n
    if pairs is None:
        rng = as_generator(rng)
        all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if len(all_pairs) > max_pairs:
            idx = rng.choice(len(all_pairs), size=max_pairs, replace=False)
            pairs = [all_pairs[i] for i in idx]
        else:
            pairs = all_pairs
    return {
        "mean_disjoint_paths": app.mean_disjoint_paths(pairs),
        "pairs_evaluated": float(len(pairs)),
    }


def stream_lookup_pairs(
    n: int,
    *,
    streams: int,
    rng=None,
    copies: int = 3,
) -> List[Tuple[int, int]]:
    """The real-time traffic model for the serve workload generator.

    Each live stream between a uniformly chosen endpoint pair probes the
    overlay once per redundant copy it plans to send (``copies`` disjoint
    paths, Section 6.2's redundancy discipline) and once in the reverse
    direction for the control/feedback channel.  Returns the flat
    ``(src, dst)`` lookup list for ``lookup_batch``.
    """
    from repro.util.rng import as_generator

    if n < 2:
        raise ValidationError("the traffic model needs at least two nodes")
    if copies < 1:
        raise ValidationError("copies must be at least 1")
    rng = as_generator(rng)
    pairs: List[Tuple[int, int]] = []
    for _ in range(int(streams)):
        source = int(rng.integers(n))
        target = int(rng.integers(n - 1))
        if target >= source:
            target += 1
        pairs.extend([(source, target)] * int(copies))
        pairs.append((target, source))
    return pairs
