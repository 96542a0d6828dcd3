"""A fixed unit of interpreter work that measures the host's current speed.

The benchmark shares a host whose speed drifts by up to ±30% over seconds
to minutes (other tenants, clock changes).  Every timing of the engine
moves with it.  To tell a change of the program from a change of the
host, the open loop runs :func:`unit` in the idle gaps between due times
(and between set-ups), and :class:`Probe` keeps the mean time per unit.
``REFERENCE_US`` divided by that mean is the run's *speed factor*: the
host-dependent part of a timing, multiplied by it, reads as it would on
the reference host.

The unit does what the engine's inner loops do: dict probes, list
appends, tuple construction and iteration, on a working set of its own.
It calls no code of the program, so a change to the program cannot
change it, except through the cache state the program leaves behind.
"""

from __future__ import annotations

import time

#: Mean seconds of one :func:`unit` on the reference host (the 2-CPU
#: x86-64 container of NOTES.md, CPython 3.11) in a quiet spell.  It only
#: sets the scale of the normalised figures; every run uses the same value.
REFERENCE_US = 20.0
#: A unit starts only if at least this long remains before the next due time.
GUARD_S = 150e-6

perf = time.perf_counter


def unit() -> int:
    """One fixed unit of work, ~20 µs on the reference host."""
    buckets: dict = {}
    for i in range(120):
        key = (i * 7919) % 37
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = bucket = []
        bucket.append((key, i, i & 3))
    total = 0
    for bucket in buckets.values():
        for item in bucket:
            total += item[2]
    return total


class Probe:
    """Times units; the mean over every unit is the host's speed."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def wait_until(self, due: float) -> None:
        """Run units while one still fits before ``due``, then spin to it."""
        now = perf()
        while due - now > GUARD_S:
            unit()
            end = perf()
            self.units += 1
            self.seconds += end - now
            now = end
        while perf() < due:
            pass

    def run_for(self, seconds: float) -> None:
        """Run units back to back for about ``seconds`` (at least one)."""
        start = perf()
        end = start + seconds
        units = 0
        now = start
        while units == 0 or now < end:
            unit()
            units += 1
            now = perf()
        self.seconds += now - start
        self.units += units

    @property
    def mean_us(self) -> float:
        return self.seconds / self.units * 1e6 if self.units else REFERENCE_US

    @property
    def factor(self) -> float:
        """Multiply a host-dependent time by this to read it at reference speed."""
        return REFERENCE_US / self.mean_us
