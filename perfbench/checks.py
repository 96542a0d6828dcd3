"""Correctness checks, independent of the timed run.

Every query's output is compared against the relational oracle
(:class:`repro.analysis.modelcheck.RelationalOracle`) at sampled instants:
snapshot equivalence (Definition 2 of the paper) requires the bag of
results valid at ``t`` to equal the relational answer over the windowed
inputs valid at ``t``.  The oracle evaluates plain bag algebra, so it
shares no code path with the operators under test.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Sequence

from repro.analysis.modelcheck import RelationalOracle
from repro.temporal import snapshot
from repro.temporal.element import element

from feeds import Feed


class BenchmarkError(RuntimeError):
    """A guard or a correctness check failed: the run measures nothing valid."""


class SampledOracle:
    """Relational answers at single instants, over slices of the input."""

    def __init__(self, feed: Feed, window: int) -> None:
        self.window = window
        self._elements: Dict[str, list] = {}
        self._starts: Dict[str, List[int]] = {}
        for source, payloads, t in feed:
            windowed = self._elements.setdefault(source, [])
            starts = self._starts.setdefault(source, [])
            for payload in payloads:
                windowed.append(element(payload, t, t + 1 + window))
                starts.append(t)

    def _inputs_at(self, t: int) -> Dict[str, list]:
        # An input element is valid at t iff start <= t < start + 1 + window.
        sliced = {}
        for source, starts in self._starts.items():
            lo = bisect.bisect_right(starts, t - 1 - self.window)
            hi = bisect.bisect_right(starts, t)
            sliced[source] = self._elements[source][lo:hi]
        return sliced

    def first_divergence(
        self, plan: object, results: Sequence[object], instants: Sequence[int]
    ) -> Optional[int]:
        """The first sampled instant where ``results`` differ from the oracle."""
        ordered = sorted(results, key=lambda e: e.start)
        starts = [e.start for e in ordered]
        longest = max((e.end - e.start for e in ordered), default=0)
        for t in instants:
            lo = bisect.bisect_right(starts, t - longest)
            hi = bisect.bisect_right(starts, t)
            observed = snapshot(ordered[lo:hi], t)
            expected = RelationalOracle(self._inputs_at(t)).snapshot_of(plan, t)
            if observed != expected:
                return t
        return None


def sample_instants(
    seed: int, end: int, windows: Sequence[tuple], count: int = 24, per_window: int = 8
) -> List[int]:
    """Seeded probe instants over ``[0, end)``, denser inside ``windows``.

    ``windows`` are ``(lo, hi)`` chronon ranges such as a migration's
    parallel phase, where the two plans' outputs meet.
    """
    rng = random.Random(seed)
    instants = {rng.randrange(end) for _ in range(count)}
    for lo, hi in windows:
        instants.update(rng.randrange(lo, max(lo + 1, hi)) for _ in range(per_window))
    return sorted(instants)


def canonical_bytes(results: Sequence[object]) -> bytes:
    """A byte encoding of a result stream that is independent of the codec."""
    return repr(
        [(e.payload, e.start, e.end, e.flag) for e in results]
    ).encode("utf-8")
