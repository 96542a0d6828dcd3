"""Per-layer tracing from outside the program.

The tracer wraps public methods of live objects (the hub, executors,
operators, the controller, the builder) with span recorders.  A span's
self time is its duration minus the time its child spans cover; spans
are aggregated per layer as they close, so a long run keeps no span list.
Nothing here is imported by the program: an untraced run pays nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Operator class name -> layer.
OPERATOR_LAYERS = {
    "TimeWindow": "operators.window",
    "HashJoin": "operators.join",
    "NestedLoopsJoin": "operators.join",
    "Aggregate": "operators.aggregate",
    "DuplicateElimination": "operators.distinct",
    "FusedStateless": "operators.fused",
    "Select": "operators.fused",
    "Project": "operators.fused",
    "ProjectFields": "operators.fused",
    "Router": "engine.router",
    "Split": "core.split",
    "ReferencePointSplit": "core.split",
    "Coalesce": "core.coalesce",
    "FrontierRouter": "core.fluid",
}

#: Cost-meter category -> layer whose ``.meter`` it counts.
METER_LAYERS = {
    "window": "operators.window",
    "join-hash": "operators.join",
    "join-insert": "operators.join",
    "join-predicate": "operators.join",
    "aggregate": "operators.aggregate",
    "distinct": "operators.distinct",
    "select": "operators.fused",
    "project": "operators.fused",
    "split": "core.split",
    "coalesce": "core.coalesce",
    "frontier": "core.fluid",
    "fluid-replay": "core.fluid",
    "ms-seed": "core.fluid",
}

class Tracer:
    """A span stack that aggregates self time, calls and counts per layer.

    ``clock`` returns seconds; tests inject a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans: ``[layer, start, child_seconds, owner]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._wrapped: Dict[tuple, Any] = {}

    @property
    def current(self) -> Optional[str]:
        """The layer of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str, owner: object = None) -> None:
        """Open a span; a call counts unless it re-enters the same owner."""
        stack = self._stack
        if owner is None or not stack or stack[-1][3] is not owner:
            self.calls[layer] += 1
        stack.append([layer, self.clock(), 0.0, owner])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, child, owner = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        # Total time counts only the outermost span of a layer, so nested
        # calls of one layer are not counted twice.
        if not any(frame[0] == layer for frame in stack):
            self.total_s[layer] += duration
        return duration

    def wrap(
        self,
        obj: object,
        method: str,
        layer: str,
        count: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Replace ``obj.method`` by a span-recording wrapper (idempotent).

        ``count`` maps the call's arguments to the number of elements it
        carries, summed into ``<layer>.in`` for outermost calls.
        """
        key = (id(obj), method)
        if key in self._wrapped:
            return
        self._wrapped[key] = obj  # keeps ``obj`` alive, so its id stays unique
        original = getattr(obj, method)
        enter, leave, stack, counts = self.enter, self.exit, self._stack, self.counts
        in_key = layer + ".in"

        def traced(*args, **kwargs):
            if count is not None and (not stack or stack[-1][3] is not obj):
                counts[in_key] += count(args)
            enter(layer, obj)
            try:
                return original(*args, **kwargs)
            finally:
                leave()

        setattr(obj, method, traced)

    def count_calls(self, obj: object, method: str, key: str, count: Callable) -> None:
        """Wrap ``obj.method`` to add ``count(args)`` to ``counts[key]``."""
        marker = (id(obj), method)
        if marker in self._wrapped:
            return
        self._wrapped[marker] = obj
        original = getattr(obj, method)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += count(args)
            return original(*args, **kwargs)

        setattr(obj, method, counted)


def _one(args: tuple) -> int:
    return 1


def _len_first(args: tuple) -> int:
    return len(args[0])


def _len_second(args: tuple) -> int:
    return len(args[1])


class Instrumenter:
    """Attaches a :class:`Tracer` to a live service and everything it owns."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.executors: List[object] = []

    # -- operators ------------------------------------------------------ #

    def operator(self, op: object) -> None:
        layer = OPERATOR_LAYERS.get(type(op).__name__, "operators.other")
        tracer = self.tracer
        tracer.wrap(op, "process", layer, _one)
        tracer.wrap(op, "process_batch", layer, _len_first)
        tracer.wrap(op, "process_heartbeat", layer)
        tracer.count_calls(op, "_emit", layer + ".out", _one)
        tracer.count_calls(op, "_emit_batch", layer + ".out", _len_first)

    def box(self, box: object) -> None:
        for op in box.operators:
            self.operator(op)

    def strategy(self, strategy: object) -> None:
        """Wrap the auxiliary operators a migration strategy installed."""
        for split in getattr(strategy, "splits", {}).values():
            self.operator(split)
        for frontier in getattr(strategy, "frontiers", {}).values():
            self.operator(frontier)
        coalesce = getattr(strategy, "coalesce", None)
        if coalesce is not None:
            self.operator(coalesce)
        layer = "core.fluid" if hasattr(strategy, "frontiers") else "core.migration"
        self.tracer.wrap(strategy, "after_event", layer)

    # -- executors ------------------------------------------------------ #

    def executor(self, executor: object) -> None:
        tracer = self.tracer
        self.executors.append(executor)
        sharded = hasattr(executor, "channels")
        layer = "engine.sharded" if sharded else "engine.executor"
        tracer.wrap(executor, "push", layer, _one)
        tracer.wrap(executor, "push_batch", layer, _len_second)
        self._advance(executor, layer)
        if sharded:
            # In-process shard workers: a full executor per shard.
            for channel in executor.channels:
                server = getattr(channel, "_server", None)
                if server is not None:
                    self.executor(server.executor)
            return
        for op in executor._window_ops.values():
            self.operator(op)
        for router in executor.routers.values():
            self.operator(router)
        self.box(executor.box)
        start = executor.start_migration

        def start_migration(new_box, strategy):
            self.box(new_box)
            start(new_box, strategy)
            self.strategy(strategy)

        executor.start_migration = start_migration

    def _advance(self, executor: object, layer: str) -> None:
        tracer = self.tracer
        advance = executor.advance
        counts = tracer.counts

        def advanced(source, t):
            if tracer.current == "service.ingest":
                counts["service.ingest.heartbeats"] += 1
            tracer.enter(layer, executor)
            try:
                return advance(source, t)
            finally:
                tracer.exit()

        executor.advance = advanced

    def plain_executors(self) -> List[object]:
        """The wrapped ``QueryExecutor`` instances, shard workers included."""
        return [ex for ex in self.executors if not hasattr(ex, "channels")]

    def state_values(self) -> int:
        """Payload values held by every plain executor."""
        return sum(ex.state_value_count() for ex in self.plain_executors())

    # -- service -------------------------------------------------------- #

    def service(self, service: object) -> None:
        """Wrap the hub, controller and every registered query.

        A restored service replaces the crashed one: only its executors
        count towards :meth:`state_values` from then on.
        """
        tracer = self.tracer
        self.executors = []
        hub = service.hub
        tracer.wrap(hub, "publish", "service.ingest", _one)
        tracer.wrap(hub, "push", "service.ingest", _one)
        tracer.wrap(hub, "publish_batch", "service.ingest", _len_second)
        tracer.wrap(hub, "push_batch", "service.ingest", _len_second)
        if hub.on_progress is not None:
            tracer.wrap(hub, "on_progress", "service.controller")
        for optimizer in service.controller._optimizers.values():
            tracer.wrap(optimizer, "decide", "optimizer.decide")
        for handle in service.registry.handles():
            self.executor(handle.executor)

    def builder(self, builder: object) -> None:
        self.tracer.wrap(builder, "build", "plans.build")
