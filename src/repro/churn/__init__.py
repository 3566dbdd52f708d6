"""Node churn: ON/OFF session models and churn/efficiency metrics.

The churn experiments of Section 4.4 drive each overlay node through ON
and OFF periods derived from PlanetLab availability traces, rescaled in
time to sweep the churn intensity.  Because churn can disconnect the
overlay, the paper switches from routing cost to the *Efficiency* metric
(inverse shortest distance, zero when disconnected) and defines a churn
rate as the time-normalised fraction of membership change per event.
"""

from repro.churn.metrics import churn_rate

__all__ = [
    "churn_rate",
]
