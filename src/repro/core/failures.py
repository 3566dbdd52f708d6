"""Failure injection: scheduled link/node outages and announcement masks.

The paper's only resilience story is churn (Section 4.4); production
overlays also die of link and router failures, flapping routes, and
partitions.  This module adds a declarative failure schedule executed by
:class:`~repro.core.engine.EgoistEngine` (and, unchanged, by the fused
:class:`~repro.core.engine_batch.EngineBatch` — every mutation happens in
``begin_epoch``, which both paths share):

* a :class:`FailureSpec` holds an epoch-indexed list of
  :class:`FailureEvent` s — kill/restore individual links, take whole
  nodes down and up, partition the overlay along a node cut, and heal
  everything — plus a delayed re-announce window and a probabilistic
  per-recipient announcement-loss rate;
* a :class:`FailureState` tracks which links/nodes are currently down as
  the schedule advances epoch by epoch;
* a :class:`LinkMaskMetric` wraps any announced/true metric so that a
  down link *measures* as disconnected (the metric family's disconnection
  value), which is what keeps every policy — including the structural
  heuristics that never consult the wiring — off dead links.

Failed links become masked link removals: the engine drops them from the
:class:`~repro.core.wiring.GlobalWiring` (a version bump, exactly like a
churn departure, so every cached residual stops matching), and the mask
keeps re-adopting policies away.  Because both the drops and the mask are
applied inside ``begin_epoch``, the fused and sequential engines stay
byte-identical under any schedule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.cost import (
    DISCONNECTION_BANDWIDTH,
    DISCONNECTION_COST,
    Metric,
)
from repro.util.validation import ValidationError

#: Actions a failure event may perform.
FAILURE_ACTIONS = (
    "link-down",
    "link-up",
    "node-down",
    "node-up",
    "partition",
    "heal",
)

#: Actions that name links.
_LINK_ACTIONS = ("link-down", "link-up")

#: Actions that name nodes ("partition" names one side of the cut).
_NODE_ACTIONS = ("node-down", "node-up", "partition")


def canonical_link(u: int, v: int) -> Tuple[int, int]:
    """The undirected link ``{u, v}`` in canonical ``(min, max)`` form."""
    u, v = int(u), int(v)
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure (or repair) applied at the start of an epoch.

    Parameters
    ----------
    epoch:
        Wiring epoch at whose start the event applies.
    action:
        One of :data:`FAILURE_ACTIONS`.  ``link-down``/``link-up`` kill or
        restore the named ``links``; ``node-down``/``node-up`` take the
        named ``nodes`` out of (back into) the overlay; ``partition``
        kills every link crossing between ``nodes`` and the rest;
        ``heal`` restores every currently-down link and node.
    nodes:
        Node ids for node actions (one side of the cut for ``partition``).
    links:
        ``(u, v)`` pairs for link actions (undirected; order-insensitive).
    """

    epoch: int
    action: str
    nodes: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()

    def validate(self) -> None:
        """Check the event is well-formed (ranges are checked per-spec)."""
        if int(self.epoch) < 0:
            raise ValidationError("failure event epoch must be >= 0")
        if self.action not in FAILURE_ACTIONS:
            raise ValidationError(
                f"unknown failure action {self.action!r}; "
                f"expected one of {FAILURE_ACTIONS}"
            )
        if self.action in _LINK_ACTIONS and not self.links:
            raise ValidationError(f"{self.action!r} events need at least one link")
        if self.action in _NODE_ACTIONS and not self.nodes:
            raise ValidationError(f"{self.action!r} events need at least one node")
        for u, v in self.links:
            if int(u) == int(v):
                raise ValidationError(f"failure link ({u}, {v}) is a self-loop")


@dataclass(frozen=True)
class FailureSpec:
    """Declarative failure schedule for one scenario.

    Parameters
    ----------
    events:
        The schedule, applied in epoch order (ties keep declaration
        order).
    reannounce_delay:
        Epochs a restored *link* stays masked in the announced metric
        after coming back up — models the link-state re-announce lag
        (ground truth unmasks immediately).  Restored nodes re-announce
        naturally at their next re-wiring opportunity, so the delay is
        link-only.
    message_loss:
        Probability in ``[0, 1)`` that any single recipient of a flooded
        link-state announcement drops it (the origin always keeps its
        own); see :meth:`repro.routing.linkstate.LinkStateProtocol.configure_loss`.
        Loss changes what each node *holds* and the ``announcements_lost``
        counter, never a decision: nodes best-respond on the shared
        :class:`~repro.core.wiring.GlobalWiring` (perfect information).
    """

    events: Tuple[FailureEvent, ...] = ()
    reannounce_delay: int = 0
    message_loss: float = 0.0

    def validate(self) -> None:
        """Check the spec is well-formed."""
        for event in self.events:
            event.validate()
        if int(self.reannounce_delay) < 0:
            raise ValidationError("reannounce_delay must be >= 0")
        loss = float(self.message_loss)
        if not 0.0 <= loss < 1.0:
            raise ValidationError("message_loss must be in [0, 1)")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FailureSpec":
        """Build (and validate) a spec from its JSON dictionary form."""
        data = dict(data)
        unknown = set(data) - {"events", "reannounce_delay", "message_loss"}
        if unknown:
            raise ValidationError(f"unknown failure spec fields {sorted(unknown)}")
        try:
            events = tuple(
                FailureEvent(
                    epoch=int(entry["epoch"]),
                    action=str(entry["action"]),
                    nodes=tuple(int(v) for v in entry.get("nodes", ())),
                    links=tuple(
                        (int(u), int(v)) for u, v in entry.get("links", ())
                    ),
                )
                for entry in data.pop("events", ())
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(f"malformed failure events: {error}")
        try:
            spec = cls(events=events, **data)
        except TypeError as error:
            raise ValidationError(f"malformed failure spec: {error}")
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, object]:
        """Canonical (JSON-ready) dictionary form."""
        self.validate()
        return {
            "events": [
                {
                    "epoch": int(event.epoch),
                    "action": event.action,
                    "nodes": [int(v) for v in event.nodes],
                    "links": [[int(u), int(v)] for u, v in event.links],
                }
                for event in self.events
            ],
            "reannounce_delay": int(self.reannounce_delay),
            "message_loss": float(self.message_loss),
        }


class FailureState:
    """Runtime tracker of a :class:`FailureSpec` over the epoch clock.

    ``advance_to(epoch)`` applies every not-yet-applied event scheduled at
    or before ``epoch``; the engine calls it once at the start of each
    epoch, so events land deterministically on both the sequential and
    fused execution paths.
    """

    def __init__(self, spec: FailureSpec, n: int):
        spec.validate()
        self.spec = spec
        self.n = int(n)
        for event in spec.events:
            for node in event.nodes:
                if not 0 <= int(node) < self.n:
                    raise ValidationError(
                        f"failure event node {node} out of range for n={self.n}"
                    )
            for u, v in event.links:
                if not (0 <= int(u) < self.n and 0 <= int(v) < self.n):
                    raise ValidationError(
                        f"failure event link ({u}, {v}) out of range for n={self.n}"
                    )
        #: Nodes currently down.
        self.down_nodes: Set[int] = set()
        #: Canonical ``(min, max)`` links currently down.
        self.down_links: Set[Tuple[int, int]] = set()
        #: Restored links still inside the re-announce window:
        #: link -> first epoch it is announced again.
        self._masked_until: Dict[Tuple[int, int], int] = {}
        # Stable sort: same-epoch events keep their declaration order.
        self._events: List[FailureEvent] = sorted(
            spec.events, key=lambda event: int(event.epoch)
        )
        self._applied = 0

    def schedule(self, event: FailureEvent) -> None:
        """Insert ``event`` into the not-yet-applied tail of the schedule.

        The live session-control API injects failures into a running
        engine through this: the event is validated against the state's
        ``n``, slotted into epoch order among the pending events (stable,
        so same-epoch events keep arrival order), and then applied by
        the ordinary :meth:`advance_to` at the next epoch boundary.  An
        event dated at or before an already-advanced epoch is not lost —
        it simply applies at the next boundary.
        """
        event.validate()
        for node in event.nodes:
            if not 0 <= int(node) < self.n:
                raise ValidationError(
                    f"failure event node {node} out of range for n={self.n}"
                )
        for u, v in event.links:
            if not (0 <= int(u) < self.n and 0 <= int(v) < self.n):
                raise ValidationError(
                    f"failure event link ({u}, {v}) out of range for n={self.n}"
                )
        tail = self._events[self._applied :]
        tail.append(event)
        tail.sort(key=lambda pending: int(pending.epoch))
        self._events[self._applied :] = tail

    def advance_to(self, epoch: int) -> None:
        """Apply every pending event scheduled at or before ``epoch``."""
        epoch = int(epoch)
        while (
            self._applied < len(self._events)
            and int(self._events[self._applied].epoch) <= epoch
        ):
            self._apply(self._events[self._applied])
            self._applied += 1
        expired = [
            link for link, until in self._masked_until.items() if until <= epoch
        ]
        for link in expired:
            del self._masked_until[link]

    def _apply(self, event: FailureEvent) -> None:
        if event.action == "link-down":
            for u, v in event.links:
                link = canonical_link(u, v)
                self.down_links.add(link)
                self._masked_until.pop(link, None)
        elif event.action == "link-up":
            for u, v in event.links:
                self._restore_link(canonical_link(u, v), int(event.epoch))
        elif event.action == "node-down":
            self.down_nodes.update(int(v) for v in event.nodes)
        elif event.action == "node-up":
            self.down_nodes.difference_update(int(v) for v in event.nodes)
        elif event.action == "partition":
            group = {int(v) for v in event.nodes}
            rest = [v for v in range(self.n) if v not in group]
            for u in group:
                for v in rest:
                    link = canonical_link(u, v)
                    self.down_links.add(link)
                    self._masked_until.pop(link, None)
        else:  # heal
            for link in sorted(self.down_links):
                self._restore_link(link, int(event.epoch))
            self.down_nodes.clear()

    def _restore_link(self, link: Tuple[int, int], epoch: int) -> None:
        if link not in self.down_links:
            return
        self.down_links.discard(link)
        if int(self.spec.reannounce_delay) > 0:
            self._masked_until[link] = epoch + int(self.spec.reannounce_delay)

    def announced_masked_links(self, epoch: int) -> Set[Tuple[int, int]]:
        """Links masked in the *announced* metric at ``epoch``.

        Down links plus restored links still inside their re-announce
        window — nodes keep measuring a restored link as dead until its
        state is flooded again.
        """
        links = set(self.down_links)
        epoch = int(epoch)
        links.update(
            link for link, until in self._masked_until.items() if epoch < until
        )
        return links

    def truth_masked_links(self) -> Set[Tuple[int, int]]:
        """Links masked in the *true* metric: exactly the down links."""
        return set(self.down_links)


class LinkMaskMetric(Metric):
    """A metric with a set of undirected links forced to "disconnected".

    Generic wrapper over any :class:`~repro.core.cost.Metric`: the masked
    links weigh the base metric's disconnection value in both directions
    (:data:`~repro.core.cost.DISCONNECTION_COST` for minimised families,
    :data:`~repro.core.cost.DISCONNECTION_BANDWIDTH` for maximised ones
    — large-but-finite values that no best response or k-closest
    selection ever picks, without feeding infinities into the fused
    kernels).  Everything else — objective direction, disconnection
    value, routing semantics — delegates to the base metric, so fused
    grouping keys and :func:`~repro.core.route_cache.metric_fingerprint`
    tokens (which hash the *masked* weight matrix, auto-invalidating
    cache entries across mask changes) behave exactly like any other
    announced-metric change.
    """

    def __init__(self, base: Metric, links: Iterable[Tuple[int, int]]):
        self._base = base
        self.name = f"{base.name}+failures"
        self.maximize = bool(base.maximize)
        self._mask_value = (
            DISCONNECTION_BANDWIDTH if self.maximize else DISCONNECTION_COST
        )
        by_src: Dict[int, Set[int]] = {}
        for u, v in links:
            u, v = int(u), int(v)
            by_src.setdefault(u, set()).add(v)
            by_src.setdefault(v, set()).add(u)
        self._masked_of: Dict[int, Set[int]] = by_src
        self._rows_of: Dict[int, np.ndarray] = {
            src: np.array(sorted(dsts), dtype=int) for src, dsts in by_src.items()
        }

    @property
    def size(self) -> int:
        return self._base.size

    @property
    def base(self) -> Metric:
        """The wrapped metric."""
        return self._base

    def masked_links(self) -> Set[Tuple[int, int]]:
        """The masked links, in canonical form."""
        return {
            canonical_link(src, dst)
            for src, dsts in self._masked_of.items()
            for dst in dsts
        }

    def link_weight(self, src: int, dst: int) -> float:
        if dst in self._masked_of.get(src, ()):
            return float(self._mask_value)
        return self._base.link_weight(src, dst)

    def link_weight_row(self, src: int) -> np.ndarray:
        row = self._base.link_weight_row(src)
        dsts = self._rows_of.get(src)
        if dsts is not None:
            row[dsts] = self._mask_value
        return row

    def link_weight_matrix(self) -> np.ndarray:
        matrix = self._base.link_weight_matrix()
        for src, dsts in self._rows_of.items():
            matrix[src, dsts] = self._mask_value
        return matrix

    def route_values(self, graph) -> np.ndarray:
        return self._base.route_values(graph)


def mask_metric(
    metric: Metric, links: Optional[Set[Tuple[int, int]]]
) -> Metric:
    """``metric`` with ``links`` masked (unwrapped when nothing is down)."""
    if not links:
        return metric
    return LinkMaskMetric(metric, links)
