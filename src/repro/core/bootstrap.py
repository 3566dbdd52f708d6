"""Bootstrap service (Section 3.1).

A newcomer joins EGOIST by querying a bootstrap node, which returns a list
of potential overlay neighbours.  The newcomer connects to at least one of
them, starts participating in the link-state protocol, and — once it has
assembled the residual graph — computes its proper (possibly sampled) best
response.  Here the server is the engine's registry of live members.
"""

from __future__ import annotations

from typing import Set

from repro.util.validation import ValidationError


class BootstrapServer:
    """Registry of live overlay members."""

    def __init__(self):
        self._members: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Membership maintenance
    # ------------------------------------------------------------------ #
    def register(self, node: int) -> None:
        """Record ``node`` as a live overlay member."""
        if node < 0:
            raise ValidationError("node ids must be non-negative")
        self._members.add(int(node))

    def deregister(self, node: int) -> None:
        """Remove ``node`` from the member list (it left or crashed)."""
        self._members.discard(int(node))

    @property
    def members(self) -> Set[int]:
        """Current live members (copy)."""
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)
