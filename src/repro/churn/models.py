"""ON/OFF churn models.

Each node alternates between ON periods (participating in the overlay) and
OFF periods (dropped out).  The paper derives its ON/OFF periods "from real
data sets of the churn observed for PlanetLab nodes, with adjustments to
the timescale to control the intensity of churn".  PlanetLab session and
downtime durations are well described by heavy-tailed (Pareto-like)
distributions with long mean uptimes; :func:`trace_driven_churn` generates
such sessions, and :func:`parametrized_churn` rescales the timescale to hit
a target churn intensity, mirroring the paper's Fig. 2 (right) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError, check_positive


@dataclass(frozen=True)
class OnOffSession:
    """One ON interval of a node: ``[start, end)`` in seconds."""

    node: int
    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValidationError("session end must be after start")

    @property
    def duration(self) -> float:
        """Length of the session in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class ChurnEvent:
    """A membership-change event: a node turning ON or OFF."""

    time: float
    node: int
    joins: bool


class ChurnSchedule:
    """A full churn schedule: per-node ON sessions over a horizon.

    Provides point-in-time queries ("which nodes are ON at time t?"),
    event iteration, and the paper's churn-rate metric.
    """

    def __init__(self, n: int, horizon: float, sessions: Sequence[OnOffSession]):
        if n < 1:
            raise ValidationError("n must be >= 1")
        self.n = int(n)
        self.horizon = check_positive(horizon, "horizon")
        self.sessions: List[OnOffSession] = sorted(sessions, key=lambda s: (s.node, s.start))
        for session in self.sessions:
            if not 0 <= session.node < self.n:
                raise ValidationError(f"session node {session.node} out of range")
        self._events = self._build_events()

    def _build_events(self) -> List[ChurnEvent]:
        events: List[ChurnEvent] = []
        for session in self.sessions:
            if session.start > 0:
                events.append(ChurnEvent(time=session.start, node=session.node, joins=True))
            if session.end < self.horizon:
                events.append(ChurnEvent(time=session.end, node=session.node, joins=False))
        events.sort(key=lambda e: (e.time, e.node))
        return events

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[ChurnEvent]:
        """All join/leave events in time order."""
        return list(self._events)

    def active_at(self, time: float) -> Set[int]:
        """Set of nodes that are ON at simulated time ``time``."""
        active: Set[int] = set()
        for session in self.sessions:
            if session.start <= time < session.end:
                active.add(session.node)
        return active

    def churn_rate(self) -> float:
        """The paper's churn metric over the full horizon.

        ``Churn = (1/T) * sum_i |U_{i-1} symdiff U_i| / max(|U_{i-1}|, |U_i|)``
        where the sum runs over membership-change events and T is the
        horizon.  A churn of 0.01 means on average 1% of the nodes join or
        leave per second.
        """
        from repro.churn.metrics import churn_rate as _churn_rate

        memberships = [self.active_at(0.0)]
        for event in self._events:
            current = set(memberships[-1])
            if event.joins:
                current.add(event.node)
            else:
                current.discard(event.node)
            memberships.append(current)
        return _churn_rate(memberships, self.horizon)


# ---------------------------------------------------------------------- #
# Generators
# ---------------------------------------------------------------------- #
def _lomax_duration(rng: np.random.Generator, mean: float, shape: float) -> float:
    """Sample from a lomax distribution with the requested mean."""
    if shape <= 1.0:
        raise ValidationError("shape must be > 1 for a finite mean")
    scale = mean * (shape - 1.0)
    return float(rng.pareto(shape) * scale)


def trace_driven_churn(
    n: int,
    horizon: float,
    *,
    mean_on: float = 3000.0,
    mean_off: float = 600.0,
    on_shape: float = 1.8,
    off_shape: float = 1.8,
    initial_on_probability: float = 0.9,
    seed: SeedLike = None,
) -> ChurnSchedule:
    """Generate a PlanetLab-like trace-driven churn schedule.

    Session (ON) and downtime (OFF) durations are heavy-tailed with the
    given means; most nodes are up most of the time, with occasional long
    outages — the qualitative behaviour of PlanetLab hosts that the paper's
    trace exhibits.

    Parameters
    ----------
    n:
        Number of nodes.
    horizon:
        Schedule length in seconds.
    mean_on, mean_off:
        Mean ON and OFF durations in seconds.
    on_shape, off_shape:
        Pareto tail indices (must exceed 1).
    initial_on_probability:
        Probability that a node starts the horizon in the ON state.
    seed:
        Seed or generator.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    horizon = check_positive(horizon, "horizon")
    check_positive(mean_on, "mean_on")
    check_positive(mean_off, "mean_off")
    rng = as_generator(seed)
    sessions: List[OnOffSession] = []
    for node in range(n):
        time = 0.0
        is_on = bool(rng.random() < initial_on_probability)
        # If starting OFF, the first OFF period is a residual draw.
        while time < horizon:
            if is_on:
                duration = max(1.0, _lomax_duration(rng, mean_on, on_shape))
                end = min(horizon, time + duration)
                if end > time:
                    sessions.append(OnOffSession(node=node, start=time, end=end))
                time += duration
            else:
                duration = max(1.0, _lomax_duration(rng, mean_off, off_shape))
                time += duration
            is_on = not is_on
    return ChurnSchedule(n, horizon, sessions)


def parametrized_churn(
    n: int,
    horizon: float,
    target_churn: float,
    *,
    duty_cycle: float = 0.8,
    seed: SeedLike = None,
    max_iterations: int = 25,
) -> ChurnSchedule:
    """Generate a churn schedule calibrated to a target churn rate.

    The paper sweeps churn by rescaling the timescale of its trace-driven
    ON/OFF processes; we do the same: generate exponential ON/OFF sessions
    with the requested ``duty_cycle`` and iteratively rescale the mean
    session length until the realised churn rate (per the paper's
    definition) is within 15% of ``target_churn``.

    Parameters
    ----------
    n:
        Number of nodes.
    horizon:
        Schedule length in seconds.
    target_churn:
        Desired churn rate (fraction of membership changing per second),
        e.g. 1e-3.
    duty_cycle:
        Long-run fraction of time each node spends ON.
    seed:
        Seed or generator.
    max_iterations:
        Calibration iterations before giving up and returning the closest
        schedule found.
    """
    if not 0 < duty_cycle < 1:
        raise ValidationError("duty_cycle must be in (0, 1)")
    check_positive(target_churn, "target_churn")
    rng = as_generator(seed)

    # Initial guess: each join/leave event flips ~1/n of the membership, and
    # a node produces one event pair per (on+off) cycle, so
    # churn ~= 2 / (cycle_length * n) summed over n nodes = 2 / cycle_length.
    cycle_length = 2.0 / target_churn

    def _generate(cycle: float) -> ChurnSchedule:
        mean_on = cycle * duty_cycle
        mean_off = cycle * (1.0 - duty_cycle)
        sessions: List[OnOffSession] = []
        for node in range(n):
            time = float(rng.uniform(0, mean_on))  # desynchronise starts
            sessions.append(OnOffSession(node=node, start=0.0, end=max(1e-3, time)))
            is_on = False
            while time < horizon:
                if is_on:
                    duration = max(1e-3, float(rng.exponential(mean_on)))
                    end = min(horizon, time + duration)
                    if end > time:
                        sessions.append(OnOffSession(node=node, start=time, end=end))
                    time += duration
                else:
                    duration = max(1e-3, float(rng.exponential(mean_off)))
                    time += duration
                is_on = not is_on
        return ChurnSchedule(n, horizon, sessions)

    best: Optional[Tuple[float, ChurnSchedule]] = None
    for _ in range(max_iterations):
        schedule = _generate(cycle_length)
        realised = schedule.churn_rate()
        error = abs(realised - target_churn) / target_churn if target_churn else 0.0
        if best is None or error < best[0]:
            best = (error, schedule)
        if error < 0.15:
            return schedule
        # Scale the cycle length toward the target (more churn -> shorter cycles).
        if realised > 0:
            cycle_length *= realised / target_churn
        else:
            cycle_length /= 2.0
    return best[1]
