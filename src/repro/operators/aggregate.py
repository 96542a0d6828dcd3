"""Snapshot aggregation: scalar and grouped (the gamma operator).

Snapshot-reducibility (Definition 1) fixes the semantics: at every time
instant ``t``, the output is the relational aggregate of the snapshot at
``t``.  Because the bag of valid payloads only changes at interval
endpoints, the operator decomposes time into *constant segments*, evaluates
the aggregate once per segment, and emits ``(value, segment)`` elements.

A segment can be finalised only once the watermark has passed it — a future
element may still extend any snapshot at or beyond the watermark — so the
operator maintains a *finalisation frontier* and emits on watermark
advances.  Empty snapshots produce no output (the grouped-aggregation
convention, applied uniformly).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..temporal.element import NEW, Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, MIN_TIME, Time
from .base import StatefulOperator
from .scalar import AggregateFunction
from .sweep import SweepArea


def merge_flags(flags: Sequence[Optional[str]]) -> Optional[str]:
    """Combine PT lineage flags of all contributors of a derived result.

    All-``NEW`` contributors yield ``NEW``; all unflagged yield ``None``;
    any other mix means some constituent predates the migration → ``OLD``.
    """
    if not flags:
        return None
    if all(flag is None for flag in flags):
        return None
    if all(flag == NEW for flag in flags):
        return NEW
    from ..temporal.element import OLD

    return OLD


class Aggregate(StatefulOperator):
    """Snapshot aggregation over an interval stream.

    Args:
        functions: the aggregate functions evaluated per snapshot.
        group_key: optional payload key extractor; when given, aggregates
            are evaluated per group and the output payload is
            ``group_key + aggregate_values``, otherwise just the values.
        name: diagnostic name.
    """

    def __init__(
        self,
        functions: Sequence[AggregateFunction],
        group_key: Optional[Callable[[Payload], Payload]] = None,
        name: str = "",
    ) -> None:
        super().__init__(arity=1, name=name or "aggregate")
        if not functions:
            raise ValueError("at least one aggregate function is required")
        self.functions = tuple(functions)
        self.group_key = group_key
        self._open = SweepArea()
        self._frontier: Time = MIN_TIME
        self._fold_kernel = None

    def use_fold_kernel(self, spec: Sequence[Tuple[str, Optional[int]]]) -> None:
        """Switch the segment sweep to a compiled column fold.

        ``spec`` names the aggregate functions positionally as
        ``(function_name, payload_index)`` pairs and MUST agree with
        ``self.functions`` — the physical builder guarantees this; the
        fold kernel replays the same accumulation (count of live
        elements, sums/extrema over one payload column each) in
        insertion order, so values, charges and flags are byte-identical
        to the element-path fold.  Grouped aggregation keeps the element
        path: group formation needs the payload rows anyway.
        """
        if self.group_key is not None:
            raise ValueError("the fold kernel requires ungrouped aggregation")
        from ..plans.kernels import compile_fold_kernel

        self._fold_kernel = compile_fold_kernel(tuple(spec))

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "aggregate")
        if element.start < self._frontier:
            # Cannot happen for ordered input: the frontier trails the
            # watermark, which trails every start timestamp.
            raise ValueError(
                f"{self.name}: element starts at {element.start} before "
                f"finalisation frontier {self._frontier}"
            )
        self._open.insert(element)

    def _on_watermark(self, watermark: Time) -> None:
        if watermark <= self._frontier:
            return
        self._finalise(self._frontier, min(watermark, MAX_TIME))
        self._frontier = watermark
        self._open.expire(watermark)

    def _on_retention_change(self) -> None:
        self._open.set_retention(self._retention)

    def _state_value_count(self) -> int:
        return self._open.value_count()

    def _finalise(self, lo: Time, hi: Time) -> None:
        """Emit aggregate results for every instant in ``[lo, hi)``."""
        if self._fold_kernel is not None:
            self._finalise_columnar(lo, hi)
            return
        boundaries = {lo, hi}
        for e in self._open:
            if lo < e.start < hi:
                boundaries.add(e.start)
            if lo < e.end < hi:
                boundaries.add(e.end)
        ordered = sorted(boundaries)
        results: List[StreamElement] = []
        for a, b in zip(ordered, ordered[1:]):
            live = [e for e in self._open if e.interval.contains(a)]
            if not live:
                continue
            self.meter.charge(len(live), "aggregate")
            segment = TimeInterval(a, b)
            flag = merge_flags([e.flag for e in live])
            if self.group_key is None:
                payloads = [e.payload for e in live]
                values = tuple(fn(payloads) for fn in self.functions)
                results.append(StreamElement(values, segment, flag))
            else:
                groups: Dict[Payload, List[StreamElement]] = {}
                for e in live:
                    key = self.group_key(e.payload)
                    if not isinstance(key, tuple):
                        key = (key,)
                    groups.setdefault(key, []).append(e)
                for key in sorted(groups, key=repr):
                    members = groups[key]
                    payloads = [e.payload for e in members]
                    values = tuple(fn(payloads) for fn in self.functions)
                    group_flag = merge_flags([e.flag for e in members])
                    results.append(StreamElement(key + values, segment, group_flag))
        for merged in _merge_adjacent(results):
            self._stage(merged)

    def _finalise_columnar(self, lo: Time, hi: Time) -> None:
        """The segment sweep over columns extracted from the open state.

        One materialisation of the sweep area into parallel arrays, then
        one compiled fold per constant segment — instead of a Python
        filter + per-function reduction per segment.  Accumulation order
        is the sweep area's insertion order, as in the element path.
        """
        starts: List[Time] = []
        ends: List[Time] = []
        rows: List[Payload] = []
        flags: List[Optional[str]] = []
        boundaries = {lo, hi}
        for e in self._open:
            s = e.interval.start
            t = e.interval.end
            starts.append(s)
            ends.append(t)
            rows.append(e.payload)
            flags.append(e.flag)
            if lo < s < hi:
                boundaries.add(s)
            if lo < t < hi:
                boundaries.add(t)
        ordered = sorted(boundaries)
        fold = self._fold_kernel.fn
        charge = self.meter.charge
        results: List[StreamElement] = []
        for a, b in zip(ordered, ordered[1:]):
            n, values, flag = fold(a, starts, ends, rows, flags)
            if not n:
                continue
            charge(n, "aggregate")
            results.append(StreamElement(values, TimeInterval(a, b), flag))
        for merged in _merge_adjacent(results):
            self._stage(merged)

    def state_elements(self) -> Iterator[StreamElement]:
        return iter(self._open)

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The open (not yet finalised) elements — the drain hook."""
        self._check_port(port)
        return list(self._open)

    def seed_state(self, port: int, elements: List[StreamElement]) -> None:
        """Replace the open state wholesale — the seed hook.

        The finalisation frontier resumes at the purged watermark: the
        two trail each other in lock-step (``_on_watermark`` runs exactly
        when the purge watermark moves), so a restored operator must have
        ``restore_progress`` applied first.
        """
        self._check_port(port)
        area = SweepArea(self._retention)
        area.replace(elements)
        self._open = area
        self._frontier = self._purged_watermark


def _merge_adjacent(results: List[StreamElement]) -> List[StreamElement]:
    """Merge equal-payload results whose segments are adjacent.

    The segment sweep fragments output at every interval boundary even when
    the aggregate value does not change; merging within a finalisation batch
    keeps output volume proportional to actual value changes.
    """
    pending: Dict[Tuple[Optional[str], Payload], StreamElement] = {}
    merged: List[StreamElement] = []
    for result in results:
        key = (result.flag, result.payload)
        previous = pending.get(key)
        if previous is not None and previous.end == result.start:
            pending[key] = previous.with_interval(
                TimeInterval(previous.start, result.end)
            )
        else:
            if previous is not None:
                merged.append(previous)
            pending[key] = result
    merged.extend(pending.values())
    merged.sort(key=lambda e: (e.start, e.end, repr(e.payload)))
    return merged
