"""Cheaters and free riders (Sections 3.4 and 4.5).

A free rider announces inflated costs for its potential outgoing links via
the link-state protocol, hoping to discourage other nodes from choosing it
as an upstream neighbour (so it carries less transit traffic) while still
enjoying the overlay for its own traffic.

:class:`CheatingModel` wraps a truthful :class:`~repro.core.cost.Metric`
and produces the *announced* view in which designated free riders inflate
(or deflate) the costs of their outgoing links by a factor.
"""

from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from repro.core.cost import BandwidthMetric, DelayMetric, Metric, NodeLoadMetric
from repro.util.validation import ValidationError, check_positive


class CheatingModel:
    """Announced-cost view of a metric with free riders inflating costs.

    Parameters
    ----------
    true_metric:
        The truthful metric (what links actually cost).
    free_riders:
        Nodes that misrepresent their outgoing link costs.
    inflation_factor:
        Multiplicative factor applied by free riders to their outgoing
        links' announced costs.  The paper's experiment uses 2.0 ("twice as
        high as the real ones"); values below 1 model the opposite abuse
        (advertising lower-than-actual delays).
    """

    def __init__(
        self,
        true_metric: Metric,
        free_riders: Iterable[int],
        inflation_factor: float = 2.0,
    ):
        check_positive(inflation_factor, "inflation_factor")
        self.true_metric = true_metric
        self.free_riders: Set[int] = {int(v) for v in free_riders}
        for rider in self.free_riders:
            if not 0 <= rider < true_metric.size:
                raise ValidationError(f"free rider {rider} out of range")
        self.inflation_factor = float(inflation_factor)

    def announced_metric(self) -> Metric:
        """The metric as seen through link-state announcements.

        Outgoing links of free riders have their weights multiplied by the
        inflation factor (divided, for the bandwidth metric, since there a
        *lower* announced bandwidth discourages selection).
        """
        weights = self.true_metric.link_weight_matrix().copy()
        for rider in self.free_riders:
            if self.true_metric.maximize:
                weights[rider, :] = weights[rider, :] / self.inflation_factor
            else:
                weights[rider, :] = weights[rider, :] * self.inflation_factor
        np.fill_diagonal(weights, 0.0 if not self.true_metric.maximize else np.inf)
        return self._rebuild(weights)

    def _rebuild(self, weights: np.ndarray) -> Metric:
        if isinstance(self.true_metric, DelayMetric):
            return DelayMetric(weights)
        if isinstance(self.true_metric, BandwidthMetric):
            return BandwidthMetric(weights)
        if isinstance(self.true_metric, NodeLoadMetric):
            # Node-load announcements are per-node; inflating outgoing link
            # costs is equivalent to inflating the node's announced load.
            loads = self.true_metric.loads
            for rider in self.free_riders:
                loads[rider] *= self.inflation_factor
            return NodeLoadMetric(loads)
        raise ValidationError(
            f"unsupported metric type {type(self.true_metric).__name__}"
        )
