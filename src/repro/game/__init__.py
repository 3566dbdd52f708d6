"""Game-theoretic analysis of the Selfish Neighbor Selection (SNS) game.

The SNS game [Laoutaris et al. 2007] underlies EGOIST: nodes are players,
wirings are strategies, and the cost functions are the preference-weighted
routing costs.  This subpackage keeps the pure Nash-equilibrium check,
an oracle the tests hold converged best-response overlays against.
Best-response dynamics themselves are
:func:`repro.core.policies.build_overlay` under a
:class:`~repro.core.policies.BestResponsePolicy`.
"""
