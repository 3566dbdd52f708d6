"""A tiny simulation clock shared by the overlay engine and churn models.

The EGOIST evaluation is organised around *wiring epochs* of T seconds
(T = 60 s in the paper), with individual node re-wirings spread uniformly
inside an epoch (one every T/n seconds on average for an n-node overlay).
:class:`SimClock` keeps the current simulated time and provides epoch
bookkeeping so that the engine, churn processes, and overhead accounting
all agree on what "now" means.
"""

from __future__ import annotations

from repro.util.validation import check_non_negative, check_positive


class SimClock:
    """Simulated wall clock measured in seconds.

    Parameters
    ----------
    epoch_length:
        Length of a wiring epoch ``T`` in seconds (default 60, as in the
        paper's PlanetLab deployment).
    start:
        Initial simulated time in seconds.
    """

    def __init__(self, epoch_length: float = 60.0, start: float = 0.0):
        self.epoch_length = check_positive(epoch_length, "epoch_length")
        self._now = check_non_negative(start, "start")

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def epoch(self) -> int:
        """Index of the current wiring epoch (0-based)."""
        return int(self._now // self.epoch_length)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        seconds = check_non_negative(seconds, "seconds")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Advance the clock to absolute time ``when`` (monotonic only)."""
        when = check_non_negative(when, "when")
        if when < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = when
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (used between independent experiment runs)."""
        self._now = check_non_negative(start, "start")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.3f}, epoch={self.epoch})"
