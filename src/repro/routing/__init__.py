"""Overlay routing substrate.

EGOIST nodes run a link-state routing protocol at the overlay layer: each
node periodically floods the identities and costs of its k established
links, every node assembles the full overlay graph from the received
announcements, and shortest-path (or widest-path, for the bandwidth
metric) routes are computed over that graph.

* :mod:`repro.routing.messages` — link-state announcement wire format and
  size accounting (Section 4.3).
* :mod:`repro.routing.linkstate` — the flooding protocol and the table of
  what every node heard.
* :mod:`repro.routing.shortest_path` — Dijkstra / all-pairs shortest paths
  with additive costs (delay, node load).
* :mod:`repro.routing.widest_path` — maximum-bottleneck-bandwidth routing
  (modified Dijkstra), used by the available-bandwidth metric.
* :mod:`repro.routing.disjoint` — edge/vertex-disjoint path extraction used
  by the real-time application (Fig. 11).
"""

from repro.routing.graph import OverlayGraph
from repro.routing.messages import LinkStateAnnouncement, announcement_size_bits
from repro.routing.linkstate import LinkStateProtocol
from repro.routing.shortest_path import (
    all_pairs_shortest_costs,
    shortest_path,
    shortest_path_costs_from,
    shortest_path_tree,
)
from repro.routing.widest_path import (
    all_pairs_widest_bandwidth,
    widest_path,
    widest_path_bandwidths_from,
)
from repro.routing.disjoint import count_disjoint_paths, disjoint_paths

__all__ = [
    "OverlayGraph",
    "LinkStateAnnouncement",
    "announcement_size_bits",
    "LinkStateProtocol",
    "all_pairs_shortest_costs",
    "shortest_path",
    "shortest_path_costs_from",
    "shortest_path_tree",
    "all_pairs_widest_bandwidth",
    "widest_path",
    "widest_path_bandwidths_from",
    "count_disjoint_paths",
    "disjoint_paths",
]
