"""Applications built on EGOIST's redirection infrastructure (Section 6).

* :mod:`repro.apps.multipath` — multipath file transfer: a source opens up
  to ``k`` parallel sessions through its first-hop EGOIST neighbours to
  escape per-session rate limits at its AS's peering points (Figs. 9, 10).
* :mod:`repro.apps.realtime` — real-time traffic: redundant copies of a
  stream are sent over disjoint overlay paths to beat delay jitter and
  loss (Fig. 11).
"""
