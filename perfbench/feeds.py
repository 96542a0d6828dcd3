"""Seeded stream feeds with controlled join selectivity and rate drift.

A feed is a list of ``(source, payloads, chronon)`` runs in global
timestamp order: every source that delivers at a chronon contributes one
run of one or more ``(key, value)`` payloads.  The same seed always gives
the same feed.

Keys are drawn uniformly and independently per element from one key
domain shared by every source, so any two streams meet on every key.  (A
generator that derives the key from the element index and the stream
number can leave each stream a disjoint residue class, and then an
equi-join delivers nothing.)  The join selectivity is set by the ratio of
window contents to the key domain: a stream delivering ``r`` elements per
chronon under a ``RANGE w`` window holds ``r * (w + 1)`` elements, so an
arriving element finds ``r * (w + 1) / keys`` matches in it on average.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

Feed = List[Tuple[str, Tuple[tuple, ...], int]]


@dataclass(frozen=True)
class StreamSpec:
    """One source of a feed.

    Attributes:
        name: the source (catalog stream) name.
        before: elements per chronon before the drift point.
        after: elements per chronon from the drift point on.
        keys: size of the key domain keys are drawn from.
        values: size of the domain the second payload column is drawn from.
    """

    name: str
    before: float
    after: float
    keys: int
    values: int = 1000


def _count(rng: random.Random, rate: float) -> int:
    """Elements at one chronon: the integer part plus a Bernoulli remainder."""
    whole = int(rate)
    return whole + (1 if rng.random() < rate - whole else 0)


def generate(
    streams: Sequence[StreamSpec], chronons: int, drift_at: int, seed: int
) -> Feed:
    """Build the feed of ``chronons`` chronons, rates flipping at ``drift_at``."""
    if chronons < 1:
        raise ValueError(f"a feed needs at least one chronon, got {chronons}")
    rng = random.Random(seed)
    feed: Feed = []
    for t in range(chronons):
        for spec in streams:
            n = _count(rng, spec.before if t < drift_at else spec.after)
            if n:
                payloads = tuple(
                    (rng.randrange(spec.keys), rng.randrange(spec.values))
                    for _ in range(n)
                )
                feed.append((spec.name, payloads, t))
    return feed
