"""Link-state protocol message formats and size accounting.

Section 4.3 of the paper gives the exact message sizes used for its
overhead analysis:

* link-state announcements: 192 bits of header and padding plus 32 bits
  per announced neighbour, broadcast every ``T_announce`` (20 s in the
  paper's deployment);
* ICMP ping messages: 320 bits each;
* coordinate queries: 320 + 32 * n bits.

The dataclasses here are the in-simulator representation; the size helpers
feed the overhead accounting of :mod:`repro.core.overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.util.validation import ValidationError

#: Header + padding of one link-state announcement, in bits.
LSA_HEADER_BITS = 192

#: Payload per announced neighbour (neighbour id + link cost), in bits.
LSA_PER_NEIGHBOR_BITS = 32

#: Size of one ICMP ECHO request or reply (ping measurement).
ICMP_MESSAGE_BITS = 320

#: Size of a pyxida-style coordinate query: 320 bits of header plus 32 bits
#: per node whose coordinate distance is returned.
COORDINATE_QUERY_BASE_BITS = 320
COORDINATE_QUERY_PER_NODE_BITS = 32


@dataclass(frozen=True)
class LinkStateAnnouncement:
    """One node's broadcast of its established links and their costs.

    Attributes
    ----------
    origin:
        Node issuing the announcement.
    sequence:
        Monotonically increasing per-origin sequence number; receivers keep
        only the freshest announcement per origin.
    links:
        Mapping from neighbour id to announced link cost.  For honest nodes
        this is the measured cost; cheaters may announce inflated values
        (see :mod:`repro.core.cheating`).
    timestamp:
        Simulated time at which the announcement was issued (seconds).
    """

    origin: int
    sequence: int
    links: Tuple[Tuple[int, float], ...]
    timestamp: float = 0.0

    @classmethod
    def from_dict(
        cls, origin: int, sequence: int, links: Dict[int, float], timestamp: float = 0.0
    ) -> "LinkStateAnnouncement":
        """Build an announcement from a neighbour->cost mapping."""
        if origin < 0:
            raise ValidationError("origin must be non-negative")
        if sequence < 0:
            raise ValidationError("sequence must be non-negative")
        ordered = tuple(sorted((int(v), float(c)) for v, c in links.items()))
        return cls(origin=int(origin), sequence=int(sequence), links=ordered, timestamp=float(timestamp))

    @property
    def size_bits(self) -> int:
        """Wire size of this announcement in bits (Section 4.3 formula)."""
        return LSA_HEADER_BITS + LSA_PER_NEIGHBOR_BITS * len(self.links)


def announcement_size_bits(num_neighbors: int) -> int:
    """Wire size (bits) of an LSA announcing ``num_neighbors`` links."""
    if num_neighbors < 0:
        raise ValidationError("num_neighbors must be non-negative")
    return LSA_HEADER_BITS + LSA_PER_NEIGHBOR_BITS * num_neighbors


def delivery_outcomes(
    rng: np.random.Generator, count: int, loss_probability: float
) -> np.ndarray:
    """Per-recipient delivery fate of one flooded message.

    Draws exactly ``count`` uniforms from ``rng`` — one per recipient, in
    the caller's recipient order — and returns a boolean array where
    ``True`` means delivered.  The fixed draw count keeps the consumed
    random stream a pure function of the broadcast schedule, so loss
    patterns are reproducible across runs and execution paths.
    """
    loss = float(loss_probability)
    if not 0.0 <= loss < 1.0:
        raise ValidationError("loss_probability must be in [0, 1)")
    if int(count) < 0:
        raise ValidationError("count must be non-negative")
    return rng.random(int(count)) >= loss
