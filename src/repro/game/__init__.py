"""Game-theoretic analysis of the Selfish Neighbor Selection (SNS) game.

The SNS game [Laoutaris et al. 2007] underlies EGOIST: nodes are players,
wirings are strategies, and the cost functions are the preference-weighted
routing costs.  This subpackage provides the machinery the paper's
background section relies on: (approximate) Nash equilibrium detection,
social cost, and price-of-anarchy style ratios against the socially
optimal wiring.  Best-response dynamics themselves are
:func:`repro.core.policies.build_overlay` under a
:class:`~repro.core.policies.BestResponsePolicy`.
"""

from repro.game.sns_game import SNSGame, is_nash_equilibrium
from repro.game.social_cost import (
    price_of_anarchy_bound,
    social_cost,
    social_optimum_greedy,
)

__all__ = [
    "SNSGame",
    "is_nash_equilibrium",
    "price_of_anarchy_bound",
    "social_cost",
    "social_optimum_greedy",
]
