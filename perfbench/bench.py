"""The open-loop service benchmark: drive, measure, check.

One run builds a :class:`~repro.service.ContinuousQueryService`, registers
the workload's CQL queries and publishes the pre-generated feed through
``IngestHub.publish``/``publish_batch`` from one thread.  Chronon ``t`` is
due ``t * tick`` after the timed run starts: the loop waits when it is
early, timing host-speed probe units meanwhile, and publishes at once when
it is late, so a stall charges its backlog to every result after it.
After the timed run the outputs are checked against the relational
oracle, untimed.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import os
import resource
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cql import Catalog
from repro.plans.kernels import clear_kernel_cache, kernel_cache_stats
from repro.recovery import CheckpointManager, replay_tail, restore_service
from repro.service import ContinuousQueryService, ControllerPolicy
from repro.service import events as ev
from repro.temporal.element import element

from checks import BenchmarkError, SampledOracle, canonical_bytes, sample_instants
from feeds import Feed, generate
from hostspeed import Probe
from trace import METER_LAYERS, Instrumenter, Tracer
from workloads import Workload

#: Service set-ups per leg; ``setup_s`` is their median at reference host speed.
SETUP_REPEATS = 41
#: Untimed set-ups first, after a busy spin of this many seconds, so the
#: timed ones neither pay first-call costs nor start on an idle core.
SETUP_WARMUP = 5
WARMUP_SPIN_S = 0.3
#: The timed run is cut into this many segments of equal publish counts;
#: ``capacity_eps`` and ``latency_p99_ms`` are medians over the segments.
SEGMENTS = 20
#: Publishes between two state-size samples in the traced run.
STATE_SAMPLE_EVERY = 64
#: Per-layer figures that are peaks, so a run's legs keep the largest.
PEAK_LAYERS = frozenset({"engine.executor.state_values_peak"})

perf = time.perf_counter


def build_service(
    workload: Workload, instrumenter: Optional[Instrumenter] = None
) -> ContinuousQueryService:
    """Service construction plus every ``register`` (the set-up phase)."""
    service = ContinuousQueryService(
        catalog=Catalog({name: ("k", "v") for name in workload.sources}),
        policy=ControllerPolicy(strategy=workload.strategy),
        time_scale=1,
    )
    if instrumenter is not None:
        instrumenter.builder(service.registry.builder)
    for name, cql, shards in workload.queries:
        service.register(name, cql, shards=shards)
    return service


def timed_setups(
    workload: Workload, repeats: int, probe: Probe
) -> Tuple[List[float], ContinuousQueryService]:
    """Set the service up ``repeats`` times from a cold kernel cache, with
    host-speed probe units between them; returns the set-up times and the
    last service."""
    times: List[float] = []
    service = None
    with collector_off():
        spin_until = perf() + WARMUP_SPIN_S
        while perf() < spin_until:
            pass
        for _ in range(SETUP_WARMUP):
            clear_kernel_cache()
            build_service(workload)
        for _ in range(repeats):
            service = None
            clear_kernel_cache()
            start = perf()
            service = build_service(workload)
            elapsed = perf() - start
            times.append(elapsed)
            # As long again on the probe, so it sees the host the set-up saw.
            probe.run_for(elapsed)
    return times, service


def feed_items(workload: Workload, feed: Feed) -> List[tuple]:
    """The publish calls: one per run when batched, else one per element."""
    if workload.batched:
        return list(feed)
    return [(source, payload, t) for source, payloads, t in feed for payload in payloads]


# --------------------------------------------------------------------- #
# The timed run
# --------------------------------------------------------------------- #


class Marks:
    """One mark per publish call: when it returned, the hub clock, and the
    length of every query's output.  The results a sink gained during a
    call were delivered by that call.  Plain arrays, so the marks add no
    objects for the garbage collector to scan during the timed run."""

    def __init__(self, queries: int) -> None:
        self.queries = queries
        self.returned = array("d")
        self.clock = array("d")
        self.lengths = array("q")
        #: 0 for the one mark of a replay, whose results were first
        #: delivered (and their output delay sampled) before the crash.
        self.with_delay = array("b")
        #: The run segment the call fell in.
        self.segment = array("h")
        #: The due time of the chronon the call was made for.
        self.due = array("d")

    def add(
        self,
        returned: float,
        clock: float,
        sinks: List[list],
        with_delay: int,
        segment: int,
        due: float,
    ) -> None:
        self.returned.append(returned)
        self.due.append(due)
        self.clock.append(clock)
        lengths = self.lengths
        for sink in sinks:
            lengths.append(len(sink))
        self.with_delay.append(with_delay)
        self.segment.append(segment)

    def __len__(self) -> int:
        return len(self.returned)


class Deliveries:
    """Per-result latency and output delay, derived from :class:`Marks`.

    A result's latency is the scheduled wait from its start's due time to
    the due time of the chronon whose publish delivered it, plus the
    *host part* from that due time to the call's return: the backlog and
    the call itself, which the host's speed scales.  Latency samples stay
    index-aligned with each query's output, so a restore can drop the
    samples of results it re-delivers.
    """

    def __init__(self, queries: int, t0: float, tick: float) -> None:
        self.t0 = t0
        self.tick = tick
        self.latency: List[List[float]] = [[] for _ in range(queries)]
        self.host: List[List[float]] = [[] for _ in range(queries)]
        self.clock: List[List[float]] = [[] for _ in range(queries)]
        self.segment: List[List[int]] = [[] for _ in range(queries)]
        self.delay: List[float] = []
        self.seen = [0] * queries

    def consume(self, marks: Marks, first: int, sinks: List[list]) -> None:
        """Attribute the results delivered by marks ``first`` onwards."""
        t0, tick, stride = self.t0, self.tick, marks.queries
        for m in range(first, len(marks)):
            ret, clock, with_delay = marks.returned[m], marks.clock[m], marks.with_delay[m]
            segment, host_part = marks.segment[m], marks.returned[m] - marks.due[m]
            for q in range(stride):
                n = marks.lengths[m * stride + q]
                prev = self.seen[q]
                if n == prev:
                    continue
                results = sinks[q]
                latency, clocks, delay = self.latency[q], self.clock[q], self.delay
                segments, host = self.segment[q], self.host[q]
                for i in range(prev, n):
                    start = results[i].start
                    latency.append(ret - (t0 + math.ceil(start) * tick))
                    host.append(host_part)
                    clocks.append(clock)
                    segments.append(segment)
                    if with_delay:
                        delay.append(clock - float(start))
                self.seen[q] = n

    def rewind(self, lengths: List[int]) -> None:
        """Forget samples beyond ``lengths``: those results are re-delivered."""
        for q, n in enumerate(lengths):
            del self.latency[q][n:]
            del self.host[q][n:]
            del self.clock[q][n:]
            del self.segment[q][n:]
            self.seen[q] = n


@dataclass
class Timeline:
    """What one timed run observed."""

    service: ContinuousQueryService
    deliveries: Deliveries
    marks: Marks
    #: Per segment of :data:`SEGMENTS` equal shares of the publish calls:
    #: elements published and seconds spent inside the calls.
    segment_events: List[int] = field(default_factory=lambda: [0] * SEGMENTS)
    segment_inside_s: List[float] = field(default_factory=lambda: [0.0] * SEGMENTS)
    lag_max_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    checkpoint_pauses_s: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    checkpoint_sink_elements: int = 0
    restore_s: float = 0.0
    recovery_s: float = 0.0
    replayed: int = 0
    migrated_before_crash: int = 0
    completed_in_run: int = 0
    state_values_peak: int = 0
    #: ``(migrated_at, completed_at)`` of every controller migration.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Host-speed units run in the idle gaps of the open loop.
    probe: Probe = field(default_factory=Probe)


def drive(
    workload: Workload,
    feed: Feed,
    items: List[tuple],
    tick: float,
    service: ContinuousQueryService,
    instrumenter: Optional[Instrumenter] = None,
) -> Timeline:
    """Publish ``items`` on the open-loop schedule; handle checkpoints/crash."""
    chronons = feed[-1][2] + 1
    every = workload.checkpoint_every
    crash_at = int(chronons * workload.crash_at) if workload.crash_at else None
    replay_log = []
    if crash_at is not None:
        replay_log = [
            (source, element(payload, t, t + 1))
            for source, payloads, t in feed
            if t < crash_at
            for payload in payloads
        ]
    policy = ControllerPolicy(strategy=workload.strategy)
    handles = service.registry.handles()
    sinks = [handle.sink.elements for handle in handles]
    hub = service.hub
    publish = hub.publish_batch if workload.batched else hub.publish
    count = len if workload.batched else (lambda payload: 1)
    manager = CheckpointManager(service) if every else None
    if manager is not None and instrumenter is not None:
        instrumenter.tracer.wrap(manager, "capture", "recovery.capture")
    next_checkpoint = every
    last_path: Optional[str] = None
    marks = Marks(len(handles))
    consumed = 0
    with collector_off(), tempfile.TemporaryDirectory(
        prefix=".perfbench-", dir=os.getcwd()
    ) as tmp:
        t0 = perf() + 0.001
        deliveries = Deliveries(len(handles), t0, tick)
        timeline = Timeline(service, deliveries, marks)
        probe = timeline.probe
        last_chronon = -1
        per_segment = max(1, len(items) // SEGMENTS)
        for n, (source, arg, t) in enumerate(items):
            if t != last_chronon:
                last_chronon = t
                due = t0 + t * tick
                probe.wait_until(due)
                if crash_at is not None and t >= crash_at:
                    deliveries.consume(marks, consumed, sinks)
                    consumed = len(marks)
                    timeline.migrated_before_crash = sum(
                        len(h.events.of_kind(ev.MIGRATED)) for h in handles
                    )
                    timeline.attempted += 1
                    crash_at = None
                    service, handles = _recover(
                        timeline, last_path, policy, replay_log, instrumenter
                    )
                    if service is None:
                        break
                    sinks = [handle.sink.elements for handle in handles]
                    hub = service.hub
                    publish = hub.publish_batch if workload.batched else hub.publish
                    marks.add(
                        perf(), hub.clock, sinks, 0, min(n // per_segment, SEGMENTS - 1), due
                    )
                    manager = None
                elif manager is not None and t >= next_checkpoint:
                    while next_checkpoint <= t:
                        next_checkpoint += every
                    path = os.path.join(tmp, f"ckpt-{t}.bin")
                    timeline.attempted += 1
                    start = perf()
                    try:
                        timeline.checkpoint_bytes = manager.checkpoint(path)
                    except Exception as exc:  # a refused checkpoint is a failure
                        timeline.failed += 1
                        timeline.errors.append(f"checkpoint at {t}: {exc!r}")
                    else:
                        last_path = path
                        timeline.checkpoint_pauses_s.append(perf() - start)
                        timeline.checkpoint_sink_elements = sum(
                            len(sink) for sink in sinks
                        )
                lag = perf() - due
                if lag > timeline.lag_max_s:
                    timeline.lag_max_s = lag
            timeline.attempted += 1
            start = perf()
            try:
                publish(source, arg, t)
            except Exception as exc:  # counted, then the run stops
                timeline.failed += 1
                timeline.errors.append(f"publish {source}@{t}: {exc!r}")
                break
            end = perf()
            k = min(n // per_segment, SEGMENTS - 1)
            timeline.segment_events[k] += count(arg)
            timeline.segment_inside_s[k] += end - start
            marks.add(end, hub.clock, sinks, 1, k, due)
            if instrumenter is not None and n % STATE_SAMPLE_EVERY == 0:
                timeline.state_values_peak = max(
                    timeline.state_values_peak, instrumenter.state_values()
                )
    deliveries.consume(marks, consumed, sinks)
    timeline.completed_in_run = sum(len(h.events.of_kind(ev.COMPLETED)) for h in handles)
    timeline.service = service
    timeline.windows = migration_windows(service)
    return timeline


@contextlib.contextmanager
def collector_off():
    """Pause the cyclic garbage collector while the clock runs, as ``timeit`` does.

    Its full scans grow with every retained result and land wherever the
    allocation count happens to cross a threshold, which made the stall
    metrics of two equal runs differ two- to four-fold.  Reference
    counting still frees everything acyclic; cyclic garbage stays until
    the run ends and shows in ``peak_rss_mib``.  The feed and the set-up
    garbage are frozen out of the final collection.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _recover(timeline, path, policy, replay_log, instrumenter):
    """Restore from the last checkpoint file and replay up to the crash."""
    if path is None:
        timeline.failed += 1
        timeline.errors.append("crash before any checkpoint was accepted")
        return None, None
    start = perf()
    try:
        restored = restore_service(path, policy=policy)
        restored_at = perf()
        handles = restored.registry.handles()
        timeline.deliveries.rewind([len(h.sink.elements) for h in handles])
        if instrumenter is not None:
            instrumenter.service(restored)
        timeline.replayed = replay_tail(restored, replay_log)
    except Exception as exc:  # a failed restore ends the run
        timeline.failed += 1
        timeline.errors.append(f"restore: {exc!r}")
        return None, None
    end = perf()
    timeline.restore_s = restored_at - start
    timeline.recovery_s = end - start
    return restored, handles


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in ``(0, 1]``)."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1))]


def high_percentile(values: List[float], p: float = 0.99) -> Tuple[float, float]:
    """The value at ``p``, or at the highest percentile with >= 10 samples
    beyond it; returns ``(value, percentile_used)``."""
    n = len(values)
    if n * (1 - p) < 10:
        p = max(0.5, 1 - 10 / n)
    return percentile(values, p), p


def migration_windows(service: ContinuousQueryService) -> List[Tuple[float, float]]:
    """``(migrated_at, completed_at)`` of every controller migration."""
    windows = []
    for handle in service.registry.handles():
        started = None
        for event in handle.events:
            if event.kind == ev.MIGRATED:
                started = event.at
            elif event.kind == ev.COMPLETED and started is not None:
                windows.append((started, event.at))
                started = None
    return windows


def _wall_between(marks: Marks, lo: float, hi: float) -> float:
    """Wall seconds from the publish reaching clock ``lo`` to the one at ``hi``."""
    clocks = marks.clock
    i = bisect.bisect_left(clocks, lo)
    j = min(bisect.bisect_left(clocks, hi), len(marks) - 1)
    before = marks.returned[i - 1] if i > 0 else marks.returned[0]
    return marks.returned[j] - before


def latency_metrics(timelines: List[Timeline]) -> Dict[str, float]:
    """End-to-end latency figures of the timed runs of one run's legs,
    pooled, in milliseconds."""
    pooled: List[float] = []
    normalised: List[float] = []
    in_migration: List[float] = []
    delays: List[float] = []
    by_segment: List[List[float]] = []
    for timeline in timelines:
        deliveries, windows = timeline.deliveries, timeline.windows
        pooled.extend(x for q in deliveries.latency for x in q)
        # The scheduled wait as it is, the host part at reference speed.
        scale = timeline.probe.factor - 1.0
        normalised.extend(
            x + host * scale
            for lat, hosts in zip(deliveries.latency, deliveries.host)
            for x, host in zip(lat, hosts)
        )
        in_migration.extend(
            x
            for lat, clocks in zip(deliveries.latency, deliveries.clock)
            for x, clock in zip(lat, clocks)
            if any(lo <= clock <= hi for lo, hi in windows)
        )
        delays.extend(deliveries.delay)
        segments_of_leg: List[List[float]] = [[] for _ in range(SEGMENTS)]
        for lat, segments in zip(deliveries.latency, deliveries.segment):
            for x, k in zip(lat, segments):
                segments_of_leg[k].append(x)
        by_segment.extend(segments_of_leg)
    p99, p99_at = high_percentile(pooled)
    out = {
        "samples": len(pooled),
        "latency_p50_ms": percentile(normalised, 0.5) * 1e3,
        "latency_p50_raw_ms": percentile(pooled, 0.5) * 1e3,
        # One stall episode moves one segment's tail, not the median one's.
        "latency_p99_ms": statistics.median(
            high_percentile(samples)[0] for samples in by_segment if samples
        )
        * 1e3,
        "latency_p99_pooled_ms": p99 * 1e3,
        "latency_p99_at": p99_at,
        "migration_samples": len(in_migration),
        "migration_latency_p99_ms": 0.0,
        "migration_latency_p99_at": 0.0,
        "output_delay_p99_chronons": high_percentile(delays)[0] if delays else 0.0,
    }
    if in_migration:
        value, at = high_percentile(in_migration)
        out["migration_latency_p99_ms"] = value * 1e3
        out["migration_latency_p99_at"] = at
    return out


def capacity_eps(timelines: List[Timeline]) -> float:
    """Elements per second inside the publish calls: the median over the
    segments of every leg, so a slow spell of the machine moves it less."""
    rates = [
        events / inside
        for timeline in timelines
        for events, inside in zip(timeline.segment_events, timeline.segment_inside_s)
        if inside > 0
    ]
    return statistics.median(rates) if rates else 0.0


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Guards and correctness
# --------------------------------------------------------------------- #


def check_guards(workload: Workload, timeline: Timeline) -> None:
    """Raise unless the run exercised what the workload exists for."""
    service = timeline.service
    handles = service.registry.handles()
    for handle in handles:
        if not handle.results:
            raise BenchmarkError(f"query {handle.name!r} delivered no results")
    migrated = [
        (handle.name, event)
        for handle in handles
        for event in handle.events.of_kind(ev.MIGRATED)
    ]
    if not workload.expect_strategy:
        if migrated or timeline.migrated_before_crash:
            raise BenchmarkError(f"{workload.name} must not migrate, saw {migrated}")
        # A refused checkpoint already failed the run; this catches a
        # schedule that never came due.
        if workload.checkpoint_every and not timeline.checkpoint_pauses_s:
            raise BenchmarkError("no checkpoint was taken")
        return
    strategies = {event["strategy"] for _, event in migrated}
    if workload.expect_strategy not in strategies:
        raise BenchmarkError(
            f"{workload.name} expected a {workload.expect_strategy!r} migration, "
            f"saw {sorted(strategies) or 'none'}"
        )
    warm = [event for _, event in migrated if event.at > workload.window]
    if not warm:
        raise BenchmarkError("no migration started after the windows filled")
    if timeline.completed_in_run < 1:
        raise BenchmarkError("no migration completed inside the timed run")


def check_oracle(workload: Workload, feed: Feed, service, seed: int) -> int:
    """Compare every query with the relational oracle; returns instants checked."""
    oracle = SampledOracle(feed, workload.window)
    end = feed[-1][2] + workload.window + 2
    windows = [
        (int(lo), int(hi) + workload.window + 1) for lo, hi in migration_windows(service)
    ]
    instants = sample_instants(seed, end, windows)
    for handle in service.registry.handles():
        t = oracle.first_divergence(handle.query.plan, handle.results, instants)
        if t is not None:
            raise BenchmarkError(
                f"query {handle.name!r} diverges from the relational oracle at t={t}"
            )
    return len(instants)


def check_identical(label: str, expected, actual) -> None:
    """Byte-compare the outputs of two services, query by query."""
    for want, got in zip(expected.registry.handles(), actual.registry.handles()):
        if canonical_bytes(want.results) != canonical_bytes(got.results):
            raise BenchmarkError(f"{label}: query {want.name!r} output differs")


def uninterrupted(workload: Workload, items: List[tuple]) -> ContinuousQueryService:
    """The reference: the whole feed, unpaced, no checkpoint, no crash."""
    service = build_service(workload)
    publish = service.hub.publish_batch if workload.batched else service.hub.publish
    for source, arg, t in items:
        publish(source, arg, t)
    service.finish()
    return service


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def _patched(tracer: Tracer, module: object, name: str, layer: str):
    """Trace a module-level function for the duration of the block."""
    original = getattr(module, name)

    def traced(*args, **kwargs):
        tracer.enter(layer)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()

    setattr(module, name, traced)
    try:
        yield
    finally:
        setattr(module, name, original)


def traced_run(
    workload: Workload, feed: Feed, items: List[tuple], tick: float
) -> Tuple[Timeline, Instrumenter, Dict[str, int]]:
    """Set up and drive the workload with every layer wrapped."""
    import repro.recovery.checkpoint as checkpoint_module
    import repro.recovery.restore as restore_module
    import repro.service.registry as registry_module

    tracer = Tracer()
    instrumenter = Instrumenter(tracer)
    clear_kernel_cache()
    before = kernel_cache_stats()
    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(tracer, registry_module, "compile_query", "cql.compile"))
        stack.enter_context(
            _patched(tracer, checkpoint_module, "write_snapshot", "recovery.write")
        )
        stack.enter_context(_patched(tracer, restore_module, "read_snapshot", "recovery.read"))
        service = build_service(workload, instrumenter)
        instrumenter.service(service)
        timeline = drive(workload, feed, items, tick, service, instrumenter)
    after = kernel_cache_stats()
    cache = {
        "hits": after["lifetime_hits"] - before["lifetime_hits"],
        "misses": after["lifetime_misses"] - before["lifetime_misses"],
    }
    return timeline, instrumenter, cache


def layer_metrics(
    timeline: Timeline, instrumenter: Instrumenter, cache: Dict[str, int]
) -> Dict[str, float]:
    """The per-layer figures of a traced run."""
    service = timeline.service
    tracer = instrumenter.tracer
    ms = {layer: seconds * 1e3 for layer, seconds in tracer.self_s.items()}
    meters: Dict[str, int] = {}
    for executor in instrumenter.plain_executors():
        for category, units in executor.meter.by_category.items():
            layer = METER_LAYERS.get(category)
            if layer is not None:
                meters[layer] = meters.get(layer, 0) + units
    handles = service.registry.handles()
    out: Dict[str, float] = {
        "service.ingest.calls": tracer.calls["service.ingest"],
        "service.ingest.self_ms": ms.get("service.ingest", 0.0),
        "service.ingest.heartbeats": tracer.counts["service.ingest.heartbeats"],
        "service.controller.rounds": sum(
            len(h.events.of_kind(ev.CONSIDERED)) for h in handles
        ),
        "service.controller.self_ms": ms.get("service.controller", 0.0),
        "optimizer.decide.calls": tracer.calls["optimizer.decide"],
        "optimizer.decide.ms": tracer.total_s["optimizer.decide"] * 1e3,
        "cql.compile.ms": tracer.total_s["cql.compile"] * 1e3,
        "plans.build.calls": tracer.calls["plans.build"],
        "plans.build.ms": tracer.total_s["plans.build"] * 1e3,
        "plans.kernel_cache.hits": cache["hits"],
        "plans.kernel_cache.misses": cache["misses"],
        "engine.executor.calls": tracer.calls["engine.executor"],
        "engine.executor.self_ms": ms.get("engine.executor", 0.0),
        "engine.executor.state_values_peak": timeline.state_values_peak,
        "engine.router.self_ms": ms.get("engine.router", 0.0),
        "engine.gate.results": sum(h.executor.gate.delivered for h in handles),
        "engine.gate.order_violations": sum(
            h.executor.gate.order_violations for h in handles
        ),
        "engine.sharded.self_ms": ms.get("engine.sharded", 0.0),
    }
    for kind in ("window", "join", "aggregate", "distinct", "fused"):
        layer = f"operators.{kind}"
        out[f"{layer}.calls"] = tracer.calls[layer]
        out[f"{layer}.in"] = tracer.counts[f"{layer}.in"]
        out[f"{layer}.out"] = tracer.counts[f"{layer}.out"]
        out[f"{layer}.self_ms"] = ms.get(layer, 0.0)
        out[f"{layer}.meter"] = meters.get(layer, 0)
    for layer in ("core.split", "core.coalesce", "core.fluid"):
        out[f"{layer}.self_ms"] = ms.get(layer, 0.0)
        out[f"{layer}.meter"] = meters.get(layer, 0)
    out["core.migration.self_ms"] = ms.get("core.migration", 0.0)
    capture_ms = tracer.total_s["recovery.capture"] * 1e3
    read_ms = tracer.total_s["recovery.read"] * 1e3
    out.update(
        {
            "recovery.capture_ms": capture_ms,
            "recovery.write_ms": tracer.total_s["recovery.write"] * 1e3,
            "recovery.bytes": timeline.checkpoint_bytes,
            "recovery.sink_elements": timeline.checkpoint_sink_elements,
            "recovery.read_ms": read_ms,
            "recovery.restore_ms": timeline.restore_s * 1e3,
            "recovery.replay_eps": (
                timeline.replayed / (timeline.recovery_s - timeline.restore_s)
                if timeline.replayed
                else 0.0
            ),
        }
    )
    return out


# --------------------------------------------------------------------- #
# One benchmark run
# --------------------------------------------------------------------- #


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    notes: List[str]


def combine_layers(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer figures of a run's legs: summed, except peaks (the largest)."""
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key not in out:
                out[key] = value
            elif key in PEAK_LAYERS:
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tick_ms: Optional[float] = None,
) -> Result:
    """Run ``workload`` once; raises :class:`BenchmarkError` on a failed check.

    ``seconds`` of feed are split evenly between the workload's legs and,
    with ``trace``, between the untraced and the traced pass of each.
    ``tick_ms`` overrides the workload's pacing (the tests pass 0 to run
    unpaced); the feed always spans its share of ``seconds`` at
    ``workload.tick_ms`` per chronon.
    """
    legs = workload.legs()
    passes = 2 if trace else 1
    # Set up before the feed exists, so every run times it on the same heap.
    setup_probe = Probe()
    setups = [timed_setups(leg, SETUP_REPEATS, setup_probe) for leg in legs]
    chronons = max(1, round(seconds * 1e3 / workload.tick_ms / (len(legs) * passes)))
    feed = generate(workload.streams, chronons, int(chronons * workload.drift), seed)
    items = feed_items(workload, feed)
    tick = (workload.tick_ms if tick_ms is None else tick_ms) / 1e3

    timelines: List[Timeline] = []
    notes: List[str] = []
    attempted = failed = 0
    for leg, (_, service) in zip(legs, setups):
        timeline = drive(leg, feed, items, tick, service)
        timelines.append(timeline)
        attempted += timeline.attempted
        failed += timeline.failed
        notes.extend(timeline.errors)
        if timeline.failed:
            return Result(False, attempted, failed, {}, {}, notes)
    rss = peak_rss_mib()

    latency = latency_metrics(timelines)
    pauses = [p for timeline in timelines for p in timeline.checkpoint_pauses_s]
    capacity = capacity_eps(timelines)
    setup_raw_s = statistics.median(t for times, _ in setups for t in times)
    end_to_end: Dict[str, float] = {
        "setup_s": setup_raw_s * setup_probe.factor,
        "latency_p50_ms": latency["latency_p50_ms"],
        "peak_rss_mib": rss,
    }
    probe_units = sum(timeline.probe.units for timeline in timelines)
    untraced_layers = {
        "setup_raw_s": setup_raw_s,
        "latency_p50_raw_ms": latency["latency_p50_raw_ms"],
        "host.setup_probe_us": setup_probe.mean_us,
        "host.probe_us": (
            sum(timeline.probe.seconds for timeline in timelines) / probe_units * 1e6
            if probe_units
            else 0.0
        ),
        "capacity_eps": capacity,
        "latency_p99_ms": latency["latency_p99_ms"],
        "latency_p99_pooled_ms": latency["latency_p99_pooled_ms"],
        "lag_max_ms": max(timeline.lag_max_s for timeline in timelines) * 1e3,
        "migration_latency_p99_ms": latency["migration_latency_p99_ms"],
        "output_delay_p99_chronons": latency["output_delay_p99_chronons"],
        "checkpoint_pause_p50_ms": statistics.median(pauses) * 1e3 if pauses else 0.0,
        "checkpoint_pause_max_ms": max(pauses) * 1e3 if pauses else 0.0,
        "restore_s": sum(timeline.restore_s for timeline in timelines),
        "recovery_s": sum(timeline.recovery_s for timeline in timelines),
        "core.migration.count": sum(len(timeline.windows) for timeline in timelines),
        "core.migration.duration_chronons": float(
            sum(hi - lo for timeline in timelines for lo, hi in timeline.windows)
        ),
        "core.migration.wall_ms": sum(
            _wall_between(timeline.marks, lo, hi)
            for timeline in timelines
            for lo, hi in timeline.windows
        )
        * 1e3,
    }
    notes.append(
        f"legs={len(legs)} events={sum(sum(t.segment_events) for t in timelines)} "
        f"chronons={chronons} per leg tick_ms={tick * 1e3:g} "
        f"results={sum(len(h.results) for t in timelines for h in t.service.registry.handles())} "
        f"latency_samples={latency['samples']} p99_at={latency['latency_p99_at']:.4f} "
        f"migration_samples={latency['migration_samples']} "
        f"migration_p99_at={latency['migration_latency_p99_at']:.4f} "
        f"migrations={[(float(lo), float(hi)) for t in timelines for lo, hi in t.windows]}"
    )
    if pauses:
        last = timelines[-1]
        notes.append(
            f"checkpoint pauses ms={[round(p * 1e3, 1) for p in pauses]} "
            f"last file bytes={last.checkpoint_bytes} "
            f"sink elements={last.checkpoint_sink_elements} "
            f"replayed={last.replayed}"
        )

    parts: List[Dict[str, float]] = []
    traced_timelines: List[Timeline] = []
    for leg, timeline in zip(legs, timelines):
        timeline.service.finish()
        check_guards(leg, timeline)
        instants = check_oracle(leg, feed, timeline.service, seed)
        notes.append(
            f"oracle: {len(leg.queries)} queries ({leg.strategy}) agree at {instants} instants"
        )
        if leg.crash_at:
            check_identical(
                "restored vs uninterrupted", uninterrupted(leg, items), timeline.service
            )
            notes.append("restored output is byte-identical to the uninterrupted run")
        if trace:
            traced, instrumenter, cache = traced_run(leg, feed, items, tick)
            attempted += traced.attempted
            failed += traced.failed
            notes.extend(traced.errors)
            if traced.failed:
                return Result(False, attempted, failed, end_to_end, {}, notes)
            traced.service.finish()
            check_identical("traced vs untraced", timeline.service, traced.service)
            parts.append(layer_metrics(traced, instrumenter, cache))
            traced_timelines.append(traced)
        # The results are checked: release them before the next leg's checks.
        timeline.service = None

    if not trace:
        end_to_end.update(
            {key: value for key, value in untraced_layers.items() if not key.startswith("core.")}
        )
        return Result(True, attempted, failed, end_to_end, {}, notes)
    per_layer = combine_layers(parts)
    per_layer.update(untraced_layers)
    traced_capacity = capacity_eps(traced_timelines)
    per_layer["trace.capacity_eps"] = traced_capacity
    per_layer["trace.overhead_pct"] = (capacity / traced_capacity - 1.0) * 100.0
    return Result(True, attempted, failed, end_to_end, per_layer, notes)
