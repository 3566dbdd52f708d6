"""Network substrate simulation.

The original EGOIST evaluation ran on PlanetLab; this subpackage replaces
the testbed with a simulator that provides the same observable quantities:

* pairwise one-way delays between overlay nodes (:mod:`repro.netsim.delayspace`,
  :mod:`repro.netsim.planetlab`, :mod:`repro.netsim.topology`),
* per-link available bandwidth (:mod:`repro.netsim.bandwidth`),
* per-node CPU load (:mod:`repro.netsim.load`),
* passive delay estimation via a Vivaldi/pyxida-style virtual coordinate
  system (:mod:`repro.netsim.coordinates`), and
* an autonomous-system / multihoming model used by the multipath transfer
  application (:mod:`repro.netsim.autonomous_systems`).
"""

from repro.netsim.delayspace import DelaySpace
from repro.netsim.planetlab import (
    PlanetLabNode,
    Region,
    synthetic_planetlab,
    synthetic_planetlab_trace,
)
from repro.netsim.topology import (
    barabasi_albert_underlay,
    delay_matrix_from_underlay,
    waxman_underlay,
)
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.load import NodeLoadModel
from repro.netsim.coordinates import VivaldiCoordinateSystem
from repro.netsim.autonomous_systems import ASTopology, PeeringLink

__all__ = [
    "DelaySpace",
    "PlanetLabNode",
    "Region",
    "synthetic_planetlab",
    "synthetic_planetlab_trace",
    "barabasi_albert_underlay",
    "delay_matrix_from_underlay",
    "waxman_underlay",
    "BandwidthModel",
    "NodeLoadModel",
    "VivaldiCoordinateSystem",
    "ASTopology",
    "PeeringLink",
]
