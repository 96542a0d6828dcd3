"""Fluid migration: per-key-range incremental state handover.

GenMig migrates a whole box at once: for a full window both plans process
*every* element, which is exactly the mid-migration throughput cliff the
hot-path benchmark shows.  Megaphone-style fluid migration removes the
cliff by migrating the keyed state one key range at a time behind a
*routing frontier*:

1. **Monitoring** — identical to GenMig: wait until every input has been
   seen (or the streams end), so the per-range split times can be derived
   from real watermarks.
2. **Arming** — partition the key domain into ``R`` hash ranges (the
   stable ``crc32(repr(key)) % R`` of the sharding layer) and splice one
   :class:`FrontierRouter` behind every input router.  The frontier routes
   each element by the range of its join key: not-yet-migrated ranges flow
   to the old box, migrated ranges to the new box.  For the duration both
   box roots feed the output gate through an order-restoring
   :class:`~repro.operators.union.Union`.
3. **Migrating** — every ``(w + b) / R`` chronons the next range is due:
   its per-range split time ``t_r = latest_watermark + w + b - EPSILON``
   is recorded (the same Lemma 1 bound GenMig uses for the whole box,
   applied to one range), the old box's state for exactly those keys is
   drained through the keyed ``extract_state_of_port`` hook, seeded into
   the new box bottom-up (the Moving States computation, merged in via
   ``absorb_state`` so previously migrated ranges keep their live state),
   and the frontier entry flips.  From that tick on the range's elements
   probe the new plan; the remaining ranges keep running undisturbed
   through the old one — both plans are fully live only for the single
   in-flight range.
4. **Completion** — once every range has flipped and the watermarks pass
   the last range's split time, nothing the old box ever staged can still
   be owed; the old box and the merging union are flushed (no-ops except
   at end-of-stream), the old box is severed, and the new box installed.

Correctness rests on the keyed scope the ``FLM`` verifier checks enforce:
every stateful operator is a hash join on one equivalence class of keys,
so elements of different ranges never join, and per range the handover is
exactly a Moving States migration — the old box has already delivered
every result derivable from the drained (pre-flip) elements, and the
seeded state joins precisely the post-flip arrivals.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..engine.box import Box, InputPort
from ..engine.sharded import shard_of
from ..operators.base import Operator
from ..operators.filter import Select
from ..operators.join import _JoinBase
from ..operators.project import Project
from ..operators.union import Union
from ..temporal.batch import Batch
from ..temporal.element import StreamElement, as_payload
from ..temporal.time import EPSILON, MIN_TIME, Time
from .moving_states import _StateSeeder
from .split import dispatch_side
from .strategy import MigrationReport, MigrationStrategy, UnsupportedPlanError


class FrontierRouter(Operator):
    """Route each element old or new by the migration state of its key range.

    One instance sits behind each input router for the duration of a fluid
    migration.  Unlike GenMig's :class:`~repro.core.split.Split`, which
    partitions every element's validity interval, the frontier forwards
    each element *whole* to exactly one side — the decision is per key
    range, not per time instant — and promises the raw watermark to both
    sides, since both boxes stay live until completion.
    """

    def __init__(
        self,
        key_of: Callable[[Any], Any],
        range_of: Callable[[Any], int],
        migrated: Set[int],
        name: str = "",
    ) -> None:
        super().__init__(arity=1, name=name or "frontier", ordered_output=False)
        self._key_of = key_of
        self._range_of = range_of
        #: Shared across all frontiers of one migration: flipping a range
        #: in the strategy flips it for every input at once.
        self._migrated = migrated
        self._old_targets: List[InputPort] = []
        self._new_targets: List[InputPort] = []
        self._watermark: Time = MIN_TIME

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def connect_old(self, operator, port: int = 0) -> None:
        """Feed the old box through ``(operator, port)``."""
        self._old_targets.append((operator, port))

    def connect_new(self, operator, port: int = 0) -> None:
        """Feed the new box through ``(operator, port)``."""
        self._new_targets.append((operator, port))

    # ------------------------------------------------------------------ #
    # Input protocol (replaces the base implementation: two output sides)
    # ------------------------------------------------------------------ #

    def process(self, element: StreamElement, port: int = 0) -> None:
        self.meter.charge(1, "frontier")
        if self._range_of(self._key_of(element.payload)) in self._migrated:
            targets = self._new_targets
        else:
            targets = self._old_targets
        for operator, target_port in targets:
            operator.process(element, target_port)
        self._forward_watermark(element.start)

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Route a whole run, forwarding each side as one sub-batch.

        Both part streams inherit the input's start order, so each side
        sees exactly the element sequence it would see element-wise; only
        the interleaving between the two sides changes, which the boxes
        cannot observe — they hold disjoint key ranges.
        """
        elements = batch.elements
        self.meter.charge(len(elements), "frontier")
        migrated = self._migrated
        range_of = self._range_of
        key_of = self._key_of
        old_parts: List[StreamElement] = []
        new_parts: List[StreamElement] = []
        for element in elements:
            if range_of(key_of(element.payload)) in migrated:
                new_parts.append(element)
            else:
                old_parts.append(element)
        dispatch_side(old_parts, self._old_targets, batch.source)
        dispatch_side(new_parts, self._new_targets, batch.source)
        self._forward_watermark(max(elements[-1].start, batch.watermark))

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        self._forward_watermark(t)

    def _forward_watermark(self, raw: Time) -> None:
        """Promise the raw input progress to both sides.

        Every element below the raw watermark has already been routed to
        its owning side, so both boxes may safely purge and release up to
        it — no per-side translation is needed, unlike Split's.
        """
        if raw <= self._watermark:
            return
        self._watermark = raw
        for operator, target_port in self._old_targets:
            operator.process_heartbeat(raw, target_port)
        for operator, target_port in self._new_targets:
            operator.process_heartbeat(raw, target_port)


class _RangeSeeder(_StateSeeder):
    """The Moving States computation, merged instead of installed.

    Identical bottom-up state derivation, but the result is *absorbed*
    into the new box's join sides (which already hold the live state of
    previously migrated ranges) rather than replacing them wholesale.
    """

    def seed(self) -> int:
        seeded = 0
        for operator in self._box.operators:
            if not isinstance(operator, _JoinBase):
                continue
            for port in (0, 1):
                state = self._input_stream(operator, port)
                operator.absorb_state(port, state)
                seeded += len(state)
        return seeded


class FluidMigration(MigrationStrategy):
    """Migrate keyed join state one key range at a time.

    Args:
        ranges: number of hash ranges ``R`` the key domain is partitioned
            into.  ``R = 1`` degenerates to a whole-box instant handover
            (a single Moving States step behind the frontier); larger
            ``R`` bounds each drain burst — and the window in which both
            plans are live — to ``1/R`` of the state.
        pace: chronons between consecutive range flips.  Defaults to
            ``(w + b) / R``: the whole handover then spans one Lemma 1
            horizon, the same application-time span GenMig keeps both
            plans fully live for.
    """

    name = "fluid"

    def __init__(self, ranges: int = 8, pace: Optional[Time] = None) -> None:
        super().__init__()
        if ranges < 1:
            raise ValueError(f"ranges must be >= 1, got {ranges}")
        self.ranges = ranges
        self._pace_override = pace
        self._phase = "idle"
        self._triggered_at: Time = 0
        self._started_at: Time = 0
        self.old_box: Optional[Box] = None
        self.new_box: Optional[Box] = None
        self.frontiers: Dict[str, FrontierRouter] = {}
        #: Merges the old (port 0) and new (port 1) roots during the
        #: handover, restoring start order at the gate.
        self.merge = Union(name="fluid-merge")
        #: Flipped range indices, shared with every frontier.
        self._migrated: Set[int] = set()
        #: Pure-function memo for :meth:`_range_of` — ``crc32(repr(key))``
        #: per element is the frontier's hot path; the key domain bounds
        #: the cache.  Derived data, deliberately absent from
        #: :meth:`phase_state`.
        self._range_cache: Dict[Any, int] = {}
        #: Flip schedule: range ``r`` is due at ``_flip_at[r]``.
        self._flip_at: List[Time] = []
        #: Per flipped range: ``(range, flipped_at_clock, t_split)``.
        self.range_log: List[Tuple[int, Time, Time]] = []
        self._drained = 0
        self._seeded = 0
        self.t_split: Optional[Time] = None  # the last range's bound

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def begin(self, executor, new_box: Box) -> None:
        self._triggered_at = executor.clock
        self.old_box = executor.box
        self.new_box = new_box
        self._validate(self.old_box)
        self._validate(new_box)
        self._phase = "monitor"
        self._try_arm(executor)

    def after_event(self, executor) -> None:
        if self._phase == "monitor":
            self._try_arm(executor)
        if self._phase == "migrating":
            self._advance_ranges(executor)

    @property
    def phase(self) -> str:
        return self._phase

    def phase_state(self) -> Optional[tuple]:
        """Canonical digest of all fluid-owned state (see base class).

        Covers the phase machine, the flip schedule and progress, the
        frontier watermarks and the new box — everything an identical-
        state pruning decision in the model checker must agree on.
        """
        from ..engine.box import operator_digest

        aux: tuple = ()
        if self._phase == "migrating":
            aux = (
                tuple(sorted(self._migrated)),
                self.new_box.state_digest() if self.new_box is not None else None,
                operator_digest(self.merge),
                tuple(
                    (name, operator_digest(frontier))
                    for name, frontier in sorted(self.frontiers.items())
                ),
            )
        return (
            self.name,
            self._phase,
            self.ranges,
            self._started_at,
            tuple(self._flip_at),
        ) + aux

    @property
    def batchable(self) -> bool:
        """Batch-boundary ticks are sound only while migrating.

        Monitoring needs the element-exact watermarks to derive the flip
        schedule, like GenMig's arming.  Once the frontiers are installed,
        deferring a due flip to the batch boundary only means a few more
        elements of that range flow to the old box first — the old box
        still holds their state, so the (later) drain hands them over and
        the outputs are unchanged.
        """
        return self._phase == "migrating"

    def state_value_count(self) -> int:
        if self._phase == "migrating" and self.new_box is not None:
            return self.new_box.state_value_count()
        return 0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _validate(self, box: Box) -> None:
        """Reject plans outside the keyed Moving-States scope loudly.

        The static counterpart lives in the plan verifier (FLM001-FLM003);
        this is the last-line runtime safeguard for hand-built boxes.
        """
        for operator in box.operators:
            if isinstance(operator, _JoinBase):
                if not getattr(operator, "keyed_state", False):
                    raise UnsupportedPlanError(
                        f"fluid migration requires keyed joins; "
                        f"{operator.name} ({type(operator).__name__}) keeps "
                        "unkeyed state that cannot be drained by range"
                    )
                continue
            if isinstance(operator, (Select, Project)):
                continue
            raise UnsupportedPlanError(
                f"fluid migration only supports keyed join trees (with "
                f"stateless operators); found {type(operator).__name__}"
            )
        for source, ports in box.taps.items():
            for operator, port in ports:
                if not isinstance(operator, _JoinBase):
                    raise UnsupportedPlanError(
                        f"fluid migration requires join entry points, found "
                        f"{type(operator).__name__} at input {source!r}"
                    )

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def _try_arm(self, executor) -> None:
        if not all(executor.source_seen.values()) and not executor.at_end_of_stream:
            return
        if not self._gate(executor, "arm"):
            return
        self._started_at = executor.clock
        span = executor.global_window + executor.interval_bound
        pace = (
            self._pace_override
            if self._pace_override is not None
            else Fraction(span, self.ranges)
        )
        self._flip_at = [self._started_at + r * pace for r in range(self.ranges)]
        self._install(executor)
        self._phase = "migrating"
        self._advance_ranges(executor)

    def _range_of(self, key: Any) -> int:
        """The owning range of one join-key value (stable across runs)."""
        owner = self._range_cache.get(key)
        if owner is None:
            owner = self._range_cache[key] = shard_of(key, self.ranges)
        return owner

    def _key_extractor(self, source: str) -> Callable[[Any], Any]:
        """The join-key extractor for one input's payloads.

        Taken from the first old-box tap port: the FLM scope guarantees a
        single key equivalence class, so every tap of the source extracts
        the same value.
        """
        operator, port = self.old_box.taps[source][0]
        return operator._keys[port]

    def _install(self, executor) -> None:
        """Splice one frontier behind every input; merge both roots."""
        old_box, new_box = self.old_box, self.new_box
        for source, router in executor.routers.items():
            frontier = FrontierRouter(
                key_of=self._key_extractor(source),
                range_of=self._range_of,
                migrated=self._migrated,
                name=f"frontier[{source}]",
            )
            frontier.meter = executor.meter
            for operator, port in old_box.taps.get(source, []):
                frontier.connect_old(operator, port)
            for operator, port in new_box.taps.get(source, []):
                frontier.connect_new(operator, port)
            router.retarget([(frontier, 0)])
            self.frontiers[source] = frontier
        self.merge.meter = executor.meter
        old_box.root.detach_sink(executor.gate)
        old_box.root.subscribe(self.merge, 0)
        new_box.root.subscribe(self.merge, 1)
        self.merge.attach_sink(executor.gate)
        # The old root has already promised the gate its output watermark;
        # carry the promise over so the merge does not hold new-box
        # results back until the old root's next heartbeat.
        self.merge.process_heartbeat(old_box.root._emitted_watermark, 0)

    # ------------------------------------------------------------------ #
    # Migrating
    # ------------------------------------------------------------------ #

    def _advance_ranges(self, executor) -> None:
        next_range = len(self._migrated)
        while next_range < self.ranges:
            due = (
                executor.clock >= self._flip_at[next_range]
                or executor.at_end_of_stream
            )
            if not due or not self._gate(executor, f"flip-{next_range}"):
                return
            self._migrate_range(executor, next_range)
            next_range = len(self._migrated)
        self._try_complete(executor)

    def _migrate_range(self, executor, index: int) -> None:
        """Drain one range from the old box, seed it into the new box, flip.

        Within one tick no elements arrive between drain and flip, so the
        handover is atomic in application time: everything the old box
        staged for the range's pre-flip pairs is already owed through its
        watermarks, and the seeded state joins exactly the post-flip
        arrivals — a Moving States migration of one range.  The drain MUST
        complete before the frontier flips: the ``early-flip`` seeded bug
        of the model checker demonstrates what one tick of slack costs.
        """
        self._drain_range(executor, index)
        self._flip_range(executor, index)

    def _drain_range(self, executor, index: int) -> None:
        """Move one range's keyed state from the old box into the new box."""
        self._replay_staged(executor, index)
        in_range = lambda key, _r=index: self._range_of(key) == _r  # noqa: E731
        tap_source: Dict[Tuple[int, int], str] = {}
        for source, ports in self.old_box.taps.items():
            for operator, port in ports:
                tap_source[(id(operator), port)] = source
        alive: Dict[str, List[StreamElement]] = {
            source: [] for source in self.old_box.taps
        }
        for operator in self.old_box.operators:
            if not isinstance(operator, _JoinBase):
                continue
            for port in (0, 1):
                elements = operator.extract_state_of_port(port, in_range)
                source = tap_source.get((id(operator), port))
                if source is not None:
                    alive[source].extend(elements)
                    self._drained += len(elements)
                # Non-tap (intermediate) state of a flipped range is inert
                # — its keys never probe the old box again — so the
                # extraction above reclaims it; nothing to seed from it,
                # the seeder recomputes intermediate states bottom-up.
        self._seeded += _RangeSeeder(self.new_box, alive, executor.meter).seed()

    def _replay_staged(self, executor, index: int) -> None:
        """Deliver the flipped range's staged intermediate results downstream.

        A result staged in an ordered-output heap has not probed downstream
        state yet — its start is still ahead of the operator's output
        watermark.  Continued execution would release it once the
        watermarks catch up, but by then the drain has removed the state it
        must join with, silently losing results (the divergence the
        ``fluid-joins`` model-check preset finds without this step; Moving
        States avoids it by flushing the whole box, which fluid cannot do
        while other ranges keep running through it).  Replaying performs
        the state-insert-and-probe half of the release only: no watermark
        moves, nothing reaches the gate early, so the other ranges'
        ordering invariants are untouched.  Root-staged results stay put —
        they have nothing left to probe and release in gate order later.
        """
        old_box = self.old_box
        in_range = lambda key, _r=index: self._range_of(key) == _r  # noqa: E731
        for _ in range(len(old_box.operators)):
            replayed = 0
            for operator in old_box.operators:
                heap = getattr(operator, "_heap", None)
                if not heap or not operator.subscribers:
                    continue
                key_of = self._output_key_of(operator)
                if key_of is None:
                    continue
                keep: List[tuple] = []
                move: List[tuple] = []
                for entry in heap:
                    element = entry[-1]
                    if in_range(key_of(element.payload)):
                        move.append(entry)
                    else:
                        keep.append(entry)
                if not move:
                    continue
                heap[:] = keep
                heapq.heapify(heap)
                for entry in sorted(move):
                    element = entry[-1]
                    operator._staged_values -= len(element.payload)
                    self._deliver_early(operator, element)
                replayed += len(move)
            if replayed:
                executor.meter.charge(replayed, "fluid-replay")
            else:
                return

    def _output_key_of(self, operator) -> Optional[Callable[[Any], Any]]:
        """The join-key extractor for ``operator``'s output payloads.

        Derived from the downstream join port the output feeds, composed
        backwards through any stateless operators in between.  ``None``
        for the root: its output feeds only the gate.
        """
        for downstream, port in operator.subscribers:
            if isinstance(downstream, _JoinBase):
                return downstream._keys[port]
            inner = self._output_key_of(downstream)
            if inner is None:
                continue
            if isinstance(downstream, Project):
                mapping = downstream.mapping
                return lambda p, _m=mapping, _k=inner: _k(as_payload(_m(p)))
            return inner  # Select: payload passes through unchanged
        return None

    def _deliver_early(self, operator, element: StreamElement) -> None:
        """Push one replayed element into downstream state, probing as usual.

        Bypasses ``process`` deliberately: the per-port watermark must not
        advance (later releases of other ranges carry smaller starts).
        Results the probe produces stage in the downstream's own ordered
        heap and release by watermark, exactly as a normal delivery would.
        """
        for downstream, port in operator.subscribers:
            if isinstance(downstream, _JoinBase):
                downstream._on_element(element, port)
            elif isinstance(downstream, Select):
                if downstream.predicate(element.payload):
                    self._deliver_early(downstream, element)
            elif isinstance(downstream, Project):
                self._deliver_early(
                    downstream,
                    element.with_payload(
                        as_payload(downstream.mapping(element.payload))
                    ),
                )

    def _flip_range(self, executor, index: int) -> None:
        """Flip the routing frontier for one range and record its bound."""
        self._migrated.add(index)
        latest = max(
            (wm for name, wm in executor.source_watermarks.items()
             if executor.source_seen[name]),
            default=0,
        )
        t_split = latest + executor.global_window + executor.interval_bound - EPSILON
        self.range_log.append((index, executor.clock, t_split))
        self.t_split = t_split

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _try_complete(self, executor) -> None:
        assert self.t_split is not None
        done = min(executor.source_watermarks.values()) >= self.t_split
        if not done and not executor.at_end_of_stream:
            return
        if not self._gate(executor, "complete"):
            return
        # Past the last range's split time nothing keyed is left and every
        # staged result has been released by watermark; at end-of-stream
        # the explicit flush delivers whatever is still owed.
        for _ in range(len(self.old_box.operators)):
            for operator in self.old_box.operators:
                operator.flush()
        self.merge.flush()
        self.old_box.root.unsubscribe(self.merge, 0)
        self.new_box.root.unsubscribe(self.merge, 1)
        self.merge.detach_sink(executor.gate)
        self.old_box.sever()
        executor._install_box(self.new_box)
        self._phase = "done"
        self.finished = True
        self._report = MigrationReport(
            strategy=self.name,
            triggered_at=self._triggered_at,
            started_at=self._started_at,
            completed_at=executor.clock,
            t_split=self.t_split,
            extra={
                "ranges": self.ranges,
                "range_log": [
                    (index, str(at), str(t)) for index, at, t in self.range_log
                ],
                "drained": self._drained,
                "seeded": self._seeded,
                "order_violations": executor.gate.order_violations,
            },
        )
