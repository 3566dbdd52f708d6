"""Random-number-generator plumbing.

Every stochastic component of the library accepts either a seed or a
:class:`numpy.random.Generator`.  Routing everything through
:func:`as_generator` keeps experiments reproducible bit-for-bit while still
allowing callers to share a single generator across components when they
want correlated randomness.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: Anything acceptable as a source of randomness.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator ready for use.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> Sequence[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``seed``.

    Children are statistically independent regardless of whether ``seed``
    was an integer, a SeedSequence, or an existing generator.  Useful for
    giving every simulated node its own stream so that adding or removing
    one node does not perturb the randomness seen by the others.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's state.
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


def spawn_seeds(seed: SeedLike, count: int) -> list:
    """Spawn ``count`` independent *integer* seeds from ``seed``.

    The serialisable sibling of :func:`spawn_generators`: children are
    derived through the same :class:`numpy.random.SeedSequence` spawning
    discipline, but materialised as plain Python integers so they can
    live in a JSON-serialisable :class:`~repro.scenario.spec.ScenarioSpec`.
    A sweep template uses this to give every expanded cell its own
    stream exactly as ``SimulationSession.engine_grid`` /
    ``deployment_grid`` give every grid cell its own spawned generator.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [int(child.generate_state(2, np.uint64)[0]) for child in root.spawn(count)]
