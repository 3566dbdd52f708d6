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
