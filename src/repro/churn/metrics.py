"""Churn-rate and Efficiency metrics (Section 4.4 of the paper).

Under churn the overlay may be disconnected, so average distance is
undefined; the paper therefore evaluates the *Efficiency* of a node:

    eff_ij = 1 / d_ij  if i and j are connected, 0 otherwise
    eff_i  = (1 / (n-1)) * sum_{j != i} eff_ij

and the churn rate of a membership process:

    Churn = (1/T) * sum_events |U_{i-1} symdiff U_i| / max(|U_{i-1}|, |U_i|)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import all_pairs_shortest_costs
from repro.util.validation import ValidationError, check_positive


def efficiency_matrix(
    graph: Optional[OverlayGraph],
    *,
    active: Optional[Iterable[int]] = None,
    distances: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise efficiency matrix over the (optionally restricted) overlay.

    ``result[i, j] = 1 / d_ij`` when a directed path from ``i`` to ``j``
    exists, 0 otherwise.  Rows and columns of inactive nodes are zero.

    ``distances`` optionally supplies the (restricted) all-pairs
    shortest-cost matrix — the engine's epoch scoring already computes
    it, and the lockstep batch computes it for many deployments in one
    stacked sweep — in which case ``graph`` may be None.
    """
    if distances is None:
        n = graph.n
        active_set = set(active) if active is not None else set(range(n))
        working = graph.restricted(active_set) if active is not None else graph
        distances = all_pairs_shortest_costs(working)
    else:
        n = distances.shape[0]
        active_set = set(active) if active is not None else set(range(n))
    act = np.array(sorted(active_set), dtype=int)
    eff = np.zeros((n, n))
    if len(act) == 0:
        return eff
    sub = distances[np.ix_(act, act)]
    vals = np.zeros_like(sub)
    positive = np.isfinite(sub) & (sub > 0)
    vals[positive] = 1.0 / sub[positive]
    # Zero-cost path (identical endpoints on the metric): treat as
    # maximally efficient rather than dividing by zero.
    vals[sub == 0] = 1.0
    np.fill_diagonal(vals, 0.0)
    eff[np.ix_(act, act)] = vals
    return eff


def overlay_efficiency(
    graph: Optional[OverlayGraph],
    *,
    active: Optional[Iterable[int]] = None,
    distances: Optional[np.ndarray] = None,
) -> float:
    """Mean node efficiency over the active nodes.

    ``distances`` forwards a precomputed all-pairs shortest-cost matrix
    to :func:`efficiency_matrix` (``graph`` may then be None).
    """
    n = graph.n if graph is not None else distances.shape[0]
    active_list = sorted(set(active)) if active is not None else list(range(n))
    if not active_list:
        return 0.0
    eff = efficiency_matrix(graph, active=active_list, distances=distances)
    if n < 2:
        return 0.0
    per_node = eff[active_list].sum(axis=1) / (n - 1)
    return float(per_node.mean())


def churn_rate(memberships: Sequence[Set[int]], horizon: float) -> float:
    """The paper's churn-rate metric from a sequence of membership sets.

    Parameters
    ----------
    memberships:
        The sequence ``U_0, U_1, ...`` of node sets, one entry per
        membership-change event (plus the initial set).
    horizon:
        Total observation time ``T`` in seconds.
    """
    horizon = check_positive(horizon, "horizon")
    if len(memberships) < 2:
        return 0.0
    total = 0.0
    for prev, curr in zip(memberships[:-1], memberships[1:]):
        denom = max(len(prev), len(curr))
        if denom == 0:
            continue
        total += len(prev.symmetric_difference(curr)) / denom
    return total / horizon


def time_to_reconverge(
    records: Sequence, event_epoch: int, *, stable_epochs: int = 1
) -> Optional[int]:
    """Epochs from a failure event until the overlay stops re-wiring.

    The smallest ``d >= 0`` such that the ``stable_epochs`` consecutive
    epoch records starting at ``event_epoch + d`` all report zero
    re-wirings — i.e. every node is content with its wiring again.
    Returns None when the run never exhibits such a quiet window (e.g.
    under sustained churn, or when the run ends mid-repair).

    ``records`` is any sequence of objects with ``epoch`` and
    ``rewirings`` attributes (:class:`repro.core.engine.EpochRecord`).
    """
    if int(stable_epochs) < 1:
        raise ValidationError("stable_epochs must be >= 1")
    stable = int(stable_epochs)
    tail = [r for r in records if r.epoch >= int(event_epoch)]
    for start in range(len(tail) - stable + 1):
        if all(r.rewirings == 0 for r in tail[start : start + stable]):
            return int(tail[start].epoch) - int(event_epoch)
    return None


def cost_overshoot(records: Sequence, event_epoch: int) -> float:
    """Relative peak of mean cost during repair after a failure event.

    ``(max post-event mean cost - pre-event baseline) / baseline``,
    clamped at zero: how much worse the overlay transiently got while
    routing around the failure, relative to its mean cost before the
    event.  NaN when either window is empty or the baseline is not a
    positive finite number.
    """
    event_epoch = int(event_epoch)
    pre = [
        r.mean_cost
        for r in records
        if r.epoch < event_epoch and np.isfinite(r.mean_cost)
    ]
    post = [
        r.mean_cost
        for r in records
        if r.epoch >= event_epoch and np.isfinite(r.mean_cost)
    ]
    if not pre or not post:
        return float("nan")
    baseline = float(np.mean(pre))
    if not np.isfinite(baseline) or baseline <= 0:
        return float("nan")
    return max(0.0, (float(max(post)) - baseline) / baseline)


def expected_healing_time(epoch_length: float, n: int) -> float:
    """Expected BR self-healing time ``O(T/n)`` noted in Section 4.4.

    A disconnected BR overlay heals as soon as any active node re-wires;
    with unsynchronised nodes re-wiring once per epoch ``T``, some node
    re-wires every ``T / n`` seconds on average.
    """
    check_positive(epoch_length, "epoch_length")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return epoch_length / n
