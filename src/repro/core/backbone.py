"""Connectivity backbones built from donated links (Section 3.3).

In HybridBR each node donates ``k2`` of its ``k`` links to the system to
maintain global connectivity under churn.  Rather than maintaining
k-MSTs (which require centralised upkeep), EGOIST forms ``k2 / 2``
bidirectional cycles over the ring of node ids: the system picks ``k2 / 2``
offsets and every node wires to its id plus and minus each offset
(modulo the current membership).  Newcomers are spliced into the cycles
and departures are healed by re-closing them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.util.validation import ValidationError


def backbone_offsets(n_active: int, k2: int) -> List[int]:
    """Choose the ``k2 / 2`` cycle offsets for ``n_active`` participants.

    Offsets are spread over the ring so that the cycles provide routes of
    diverse "stride": the first cycle is the successor ring (offset 1), the
    remaining ones split the ring roughly evenly.
    """
    if k2 < 0:
        raise ValidationError("k2 must be non-negative")
    if k2 % 2 != 0:
        raise ValidationError("k2 must be even (each cycle uses two links)")
    if n_active < 2 or k2 == 0:
        return []
    n_cycles = k2 // 2
    offsets: List[int] = []
    for j in range(n_cycles):
        if j == 0:
            offset = 1
        else:
            offset = max(1, int(round(j * (n_active - 1) / (n_cycles + 1))) + 1)
        offset = offset % n_active
        if offset == 0:
            offset = 1
        # Avoid duplicate offsets (possible for tiny memberships).
        while offset in offsets and offset < n_active - 1:
            offset += 1
        offsets.append(offset)
    return offsets[:n_cycles]


def backbone_links(
    active_nodes: Sequence[int], k2: int
) -> Dict[int, Set[int]]:
    """Donated backbone links for every active node.

    Parameters
    ----------
    active_nodes:
        The nodes currently participating (any iterable of ids); they are
        arranged on a ring in sorted order.
    k2:
        Number of donated links per node (even).  ``k2 = 2`` yields a
        single bidirectional cycle.

    Returns
    -------
    dict
        Mapping ``node -> set of donated out-neighbours``.  Each node gets
        at most ``k2`` donated links (fewer when the membership is small).
    """
    ring = sorted(set(int(v) for v in active_nodes))
    n_active = len(ring)
    links: Dict[int, Set[int]] = {node: set() for node in ring}
    if n_active < 2 or k2 <= 0:
        return links
    offsets = backbone_offsets(n_active, k2)
    position = {node: idx for idx, node in enumerate(ring)}
    for node in ring:
        idx = position[node]
        for offset in offsets:
            forward = ring[(idx + offset) % n_active]
            backward = ring[(idx - offset) % n_active]
            for target in (forward, backward):
                if target != node:
                    links[node].add(target)
    # Cap at k2 donated links per node (overlapping offsets on tiny rings
    # can otherwise exceed the budget).
    for node in ring:
        if len(links[node]) > k2:
            links[node] = set(sorted(links[node])[:k2])
    return links


def is_backbone_connected(links: Dict[int, Set[int]]) -> bool:
    """True if the donated links alone strongly connect the membership."""
    members = sorted(links)
    if len(members) <= 1:
        return True
    index = {node: i for i, node in enumerate(members)}
    # Simple DFS over the donated-link digraph from the first member.
    def reachable_from(start: int) -> Set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in links.get(u, ()):  # donated out-links
                if v in index and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    target = set(members)
    return all(target <= reachable_from(node) for node in members)
