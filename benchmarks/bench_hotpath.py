#!/usr/bin/env python
"""Hot-path microbenchmark: steady-state throughput of a 4-way join plan.

Measures ingested elements per second for the paper's 4-way nested-loops
equi-join tree at ~10k elements of live operator state, in two scenarios:

* ``steady``         — no migration, pure steady-state processing;
* ``genmig_inflight``— the same workload while a GenMig migration from the
  left-deep to the right-deep join tree is in its parallel phase (both
  boxes plus split/coalesce are live for the whole measurement window).

The timed window starts only after the window operators have filled the
join states (warm state) and, for the migration scenario, lies entirely
inside the parallel phase, so the numbers reflect the per-element hot
path: probing, staging, watermark-driven purging and metrics accounting.

Each scenario is fed two ways: element-at-a-time through ``push`` (the
reference loop, comparable with pre-batching captures) and batch-wise
through ``push_batch`` with per-(timestamp, source) runs — the workload's
``rate`` elements per chronon per stream form exactly the uniform-start
runs the operators' amortised batch path targets.  The headline scenario
numbers use the batch feed at ``batch_size = rate``; a batch-size sweep
(1, 2, rate) is recorded alongside, with size 1 being the element feed.

A second pair of scenarios measures *operator fusion*: a filter-heavy
five-stage stateless chain (select → project → select → select →
project) built once unfused (``fuse=False``, the byte-identity oracle)
and once fused into a single compiled-kernel operator.  Both runs report
their meter totals — fusion must charge exactly what the unfused chain
charges — and the fused run records the kernel compile-cache counters
(``repro.plans.kernels.kernel_cache_stats``).

A plain throughput scenario, ``columnar_join``, runs the same 4-way
workload over a hash-join tree built by the physical builder: columnar
state and compiled probe kernels, the hash join's only layout.
A fourth section measures *sharded execution*: the 4-way equi-join
workload hash-partitioned across 1, 2 and 4 shard workers via
``ShardedExecutor``, against a single-process run of the identical plan
as the byte-identity oracle.  The sweep forces nested-loops joins, whose
probe cost is linear in live state — so each worker scanning only its
own ``state/N`` slice is an *algorithmic* N-fold cut in probe work that
pays even on a single CPU (``cpu_count`` is recorded honestly alongside).
A hash-join variant of the same workload additionally cross-checks that
``MetricsRecorder.aggregate`` over the per-shard recorders reproduces
the single-process meter exactly, category by category.
A *fluid migration* triple runs the same 4-way workload over hash
equi-join trees: ``steady_keyed`` (no migration), ``genmig_keyed_inflight``
(GenMig over the keyed plan pair) and ``fluid_inflight``
(``FluidMigration`` with 8 key ranges).  All three share one feed and one
plan pair, so the ``fluid`` section's mid-migration throughput and p99
ratios are same-run and noise-immune; the ``--regress`` gate demands
fluid's in-flight throughput at least match GenMig's on the same run.
Every scenario additionally reports p50/p95/p99 per-element ingestion
latency over its timed window — for the ``*_inflight`` scenarios, that is
the per-element latency *during* the migration's concurrent phase, and a
``phase_latency_us`` timeline breaks the whole run into pre-/during-/
post-migration percentiles.
A ``modelcheck_smoke`` section times the protocol model checker
(``repro.analysis.modelcheck``/``races``) in schedules explored per
second — the cost driver of the CI ``modelcheck`` job.

Results are written to ``BENCH_hotpath.json``.  Pass ``--baseline
path/to/old.json`` to embed a previously captured run (e.g. from the
commit before a performance change) and the resulting speedup factors.
Pass ``--regress path/to/committed.json`` to fail (exit 1) when any
scenario's throughput drops below ``--min-ratio`` (default 0.8) of the
committed capture — the CI bitrot gate.

Usage:
    python benchmarks/bench_hotpath.py              # full run
    python benchmarks/bench_hotpath.py --smoke      # seconds-fast CI smoke
    python benchmarks/bench_hotpath.py --smoke --regress BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import FluidMigration, GenMig  # noqa: E402
from repro.engine import (  # noqa: E402
    Box,
    MetricsRecorder,
    QueryExecutor,
    ShardedExecutor,
)
from repro.engine.transport import LocalTransport  # noqa: E402
from repro.operators import CostMeter, NestedLoopsJoin, equi_join  # noqa: E402
from repro.plans import (  # noqa: E402
    Arithmetic,
    Comparison,
    Field,
    JoinNode,
    Literal,
    Not,
    Or,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
    clear_kernel_cache,
    kernel_cache_stats,
)
from repro.plans.logical import Query  # noqa: E402
from repro.streams import CollectorSink, PhysicalStream  # noqa: E402
from repro.temporal import Batch, element  # noqa: E402

STREAMS = ("A", "B", "C", "D")

#: Knuth multiplicative hash constant — deterministic pseudo-random payloads
#: without seeding a PRNG per run.
_MIX = 2654435761


@dataclass(frozen=True)
class HotpathConfig:
    """One benchmark configuration (all times in chronons)."""

    count: int          # elements per stream
    rate: int           # elements per chronon per stream
    window: int         # time window applied to every input
    migrate_at: int     # GenMig trigger time (genmig_inflight scenario)
    measure_start: int  # timed section: first element start included
    measure_end: int    # timed section: first element start excluded
    domain: int         # payload values drawn from [0, domain)
    bucket: int         # metrics bucket size

    @property
    def span(self) -> int:
        return self.count // self.rate

    @property
    def target_state(self) -> int:
        """Approximate live join-state size inside the timed window."""
        return len(STREAMS) * (self.window + 1) * self.rate


FULL = HotpathConfig(
    count=5600, rate=4, window=625, migrate_at=700,
    measure_start=700, measure_end=1200, domain=4096, bucket=50,
)

SMOKE = HotpathConfig(
    count=560, rate=4, window=50, migrate_at=60,
    measure_start=60, measure_end=100, domain=512, bucket=20,
)


def make_events(config: HotpathConfig) -> List[Tuple[str, object]]:
    """The globally ordered ingestion sequence of all four streams."""
    events: List[Tuple[str, object]] = []
    for i in range(config.count):
        t = i // config.rate
        for s, name in enumerate(STREAMS):
            value = ((i * len(STREAMS) + s) * _MIX) % config.domain
            events.append((name, element(value, t, t + 1)))
    return events


def make_batches(config: HotpathConfig, batch_size: int) -> List[Tuple[str, Batch]]:
    """The same workload as per-(timestamp, source) runs of ``batch_size``.

    Still globally start-ordered (every chunk of a chronon shares one
    timestamp), so it remains a legal feed for the global-order executor;
    only the tie-break among equal timestamps differs from
    :func:`make_events`, which interleaves the streams element by element.
    """
    per_chronon: Dict[Tuple[int, str], List[object]] = {}
    for name, e in make_events(config):
        per_chronon.setdefault((e.start, name), []).append(e)
    batches: List[Tuple[str, Batch]] = []
    for t, name in sorted(per_chronon, key=lambda k: (k[0], STREAMS.index(k[1]))):
        run = per_chronon[(t, name)]
        for offset in range(0, len(run), batch_size):
            chunk = run[offset : offset + batch_size]
            batches.append((name, Batch(chunk, source=name)))
    return batches


def _join(name: str) -> NestedLoopsJoin:
    return NestedLoopsJoin(lambda l, r: l[0] == r[0], name=name)


def left_deep_box() -> Box:
    j1, j2, j3 = _join("AB"), _join("ABC"), _join("ABCD")
    j1.subscribe(j2, 0)
    j2.subscribe(j3, 0)
    return Box(
        taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)], "D": [(j3, 1)]},
        root=j3,
        label="((A⋈B)⋈C)⋈D",
    )


def right_deep_box() -> Box:
    j1, j2, j3 = _join("CD"), _join("BCD"), _join("ABCD")
    j1.subscribe(j2, 1)
    j2.subscribe(j3, 1)
    return Box(
        taps={"A": [(j3, 0)], "B": [(j2, 0)], "C": [(j1, 0)], "D": [(j1, 1)]},
        root=j3,
        label="A⋈(B⋈(C⋈D))",
    )


def _equi(name: str):
    """Hash equi-join on payload position 0 — the key chain A=B=C=D.

    Every join of both trees keys on column 0 of either input (the join
    chain transits one value), which is exactly the single key
    equivalence class fluid migration's per-range drain requires.
    """
    return equi_join(0, 0, name=name)


def keyed_left_deep_box() -> Box:
    j1, j2, j3 = _equi("AB"), _equi("ABC"), _equi("ABCD")
    j1.subscribe(j2, 0)
    j2.subscribe(j3, 0)
    return Box(
        taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)], "D": [(j3, 1)]},
        root=j3,
        label="((A⋈B)⋈C)⋈D hash",
    )


def keyed_right_deep_box() -> Box:
    j1, j2, j3 = _equi("CD"), _equi("BCD"), _equi("ABCD")
    j1.subscribe(j2, 1)
    j2.subscribe(j3, 1)
    return Box(
        taps={"A": [(j3, 0)], "B": [(j2, 0)], "C": [(j1, 0)], "D": [(j1, 1)]},
        root=j3,
        label="A⋈(B⋈(C⋈D)) hash",
    )


def run_scenario(
    config: HotpathConfig,
    migrate: bool,
    batch_size: int = 1,
    make_boxes: Optional[Tuple[Callable[[], Box], Callable[[], Box]]] = None,
    make_strategy: Callable[[], object] = GenMig,
) -> Dict[str, object]:
    """Push the workload through an executor, timing the measurement window.

    ``batch_size == 1`` uses the element-at-a-time ``push`` feed (the
    reference loop); larger sizes feed per-(timestamp, source) runs through
    ``push_batch``, with ``batch_during_migration`` enabled so the
    migration's concurrent phase — where the timed window lies — stays on
    the batch path.  ``make_boxes`` selects the (old, new) plan pair
    (default: the nested-loops trees); ``make_strategy`` the migration
    strategy (default GenMig).
    """
    old_factory, new_factory = make_boxes or (left_deep_box, right_deep_box)
    sources = {name: PhysicalStream([], name) for name in STREAMS}
    windows = {name: config.window for name in STREAMS}
    metrics = MetricsRecorder(bucket_size=config.bucket)
    executor = QueryExecutor(
        sources,
        windows,
        old_factory(),
        metrics=metrics,
        meter=CostMeter(),
        batch_during_migration=batch_size > 1,
    )
    if migrate:
        executor.schedule_migration(
            config.migrate_at, new_factory(), make_strategy()
        )

    if batch_size == 1:
        feed: List[Tuple[str, object]] = make_events(config)
        sizes = [1] * len(feed)
    else:
        feed = make_batches(config, batch_size)
        sizes = [len(batch) for _, batch in feed]

    timed_elements = 0
    timed_seconds = 0.0
    started: Optional[float] = None
    state_at_start = 0
    # Per-push (start, per-element latency) over the WHOLE run — the
    # timed-window percentiles and the migration phase profile both
    # derive from this one sample list.
    samples: List[Tuple[int, float]] = []
    for (name, item), size in zip(feed, sizes):
        t = item.start if size == 1 else item.first_start
        if started is None and t >= config.measure_start:
            state_at_start = executor.state_value_count()
            started = time.perf_counter()
        if started is not None and timed_seconds == 0.0 and t >= config.measure_end:
            timed_seconds = time.perf_counter() - started
        before = time.perf_counter()
        if size == 1:
            executor.push(name, item)
        else:
            executor.push_batch(name, item)
        # Per-element ingestion latency: a batch push is amortised over
        # its run.
        samples.append((t, (time.perf_counter() - before) / size))
        if started is not None and timed_seconds == 0.0:
            timed_elements += size
    if started is not None and timed_seconds == 0.0:
        timed_seconds = time.perf_counter() - started
    executor.finish()

    latencies = [
        lat
        for t, lat in samples
        if config.measure_start <= t < config.measure_end
    ]
    result: Dict[str, object] = {
        "batch_size": batch_size,
        "elements_timed": timed_elements,
        "seconds": round(timed_seconds, 6),
        "elements_per_sec": round(timed_elements / timed_seconds, 1),
        "state_values_at_measure_start": state_at_start,
        "results_delivered": executor.gate.delivered,
        "latency_us": _latency_percentiles(latencies),
    }
    if migrate:
        if not executor.migration_log:
            raise RuntimeError(
                "migration scenario never migrated: the trigger at t={} "
                "did not fire — the scenario would silently degenerate "
                "to the steady one".format(config.migrate_at)
            )
        report = executor.migration_log[0]
        result["migration"] = {
            "strategy": report.strategy,
            "t_split": str(report.t_split),
            "started_at": report.started_at,
            "completed_at": report.completed_at,
        }
        # Latency timeline around the migration: ingestion percentiles
        # before the strategy armed, while the handover was in flight,
        # and after the old box was severed.  A strategy that removes
        # the mid-migration cliff shows a "during" column close to the
        # two steady phases; GenMig's during-p99 is the cliff itself.
        phases: Dict[str, List[float]] = {"pre": [], "during": [], "post": []}
        for t, lat in samples:
            if t < report.started_at:
                phases["pre"].append(lat)
            elif t <= report.completed_at:
                phases["during"].append(lat)
            else:
                phases["post"].append(lat)
        result["phase_latency_us"] = {
            name: dict(_latency_percentiles(values), pushes=len(values))
            for name, values in phases.items()
        }
        # The timed window must lie inside the parallel phase, otherwise
        # the scenario silently degenerates to the steady one.  Raise (not
        # assert): the check must survive ``python -O``.
        if report.started_at > config.measure_start:
            raise RuntimeError(
                f"migration started at {report.started_at}, after the timed "
                f"window opened at {config.measure_start}: the measurement "
                "would mix steady and in-flight processing"
            )
        if report.completed_at < config.measure_end:
            raise RuntimeError(
                f"migration completed at {report.completed_at}, before the "
                f"timed window closed at {config.measure_end}: the "
                "measurement would mix in-flight and steady processing"
            )
    return result


def _latency_percentiles(samples: List[float]) -> Dict[str, float]:
    """p50/p95/p99 of per-element ingestion latency, in microseconds."""
    if not samples:
        return {}
    ordered = sorted(samples)
    last = len(ordered) - 1
    return {
        f"p{q}": round(ordered[min(last, (len(ordered) * q) // 100)] * 1e6, 2)
        for q in (50, 95, 99)
    }


@dataclass(frozen=True)
class FusionConfig:
    """The filter-heavy stateless-chain workload (fusion scenarios)."""

    count: int   # total elements on the single stream S
    rate: int    # elements per chronon (also the headline batch size)
    window: int  # time window applied at the tap
    domain: int  # payload values drawn from [0, domain)


FUSION_FULL = FusionConfig(count=240_000, rate=8, window=64, domain=1024)
FUSION_SMOKE = FusionConfig(count=24_000, rate=8, window=64, domain=1024)

S = Source("S", ["k", "v"])


def filter_chain_plan(config: FusionConfig):
    """Five stateless stages over one source — one maximal fusable chain.

    Selectivities are tuned so every stage still sees real traffic (the
    chain filters, it does not annihilate), which is the regime where
    per-element dispatch dominates the unfused hot path.
    """
    s1 = SelectNode(
        S, Comparison("<", Field("S.v"), Literal(3 * config.domain // 4))
    )
    p1 = ProjectNode(
        s1,
        [
            (Field("S.k"), "k"),
            (Arithmetic("+", Arithmetic("*", Field("S.v"), Literal(3)), Literal(1)), "w"),
        ],
    )
    s2 = SelectNode(
        p1, Not(Comparison("=", Arithmetic("%", Field("w"), Literal(7)), Literal(0)))
    )
    s3 = SelectNode(
        s2,
        Or(
            Comparison("<", Field("k"), Literal(6)),
            Comparison(">", Field("w"), Literal(config.domain * 2)),
        ),
    )
    return ProjectNode(s3, [(Arithmetic("-", Field("w"), Field("k")), "out")])


def make_fusion_batches(config: FusionConfig, batch_size: int) -> List[Batch]:
    batches: List[Batch] = []
    for offset in range(0, config.count, batch_size):
        chunk = [
            element(
                ((i * _MIX) % 8, (i * _MIX) % config.domain),
                i // config.rate,
                i // config.rate + 1,
            )
            for i in range(offset, min(offset + batch_size, config.count))
        ]
        batches.append(Batch(chunk, source="S"))
    return batches


def run_fusion_scenario(
    config: FusionConfig, fuse: bool, batch_size: int
) -> Dict[str, object]:
    """Steady-state throughput of the stateless chain, fused or not."""
    box = PhysicalBuilder(fuse=fuse).build(filter_chain_plan(config))
    executor = QueryExecutor(
        {"S": PhysicalStream([], "S")},
        {"S": config.window},
        box,
        meter=CostMeter(),
    )
    batches = make_fusion_batches(config, batch_size)
    started = time.perf_counter()
    for batch in batches:
        executor.push_batch("S", batch)
    executor.finish()
    seconds = time.perf_counter() - started
    return {
        "batch_size": batch_size,
        "fused": fuse,
        "operators": len(box.operators),
        "elements_timed": config.count,
        "seconds": round(seconds, 6),
        "elements_per_sec": round(config.count / seconds, 1),
        "results_delivered": executor.gate.delivered,
        "meter_total": executor.meter.total,
    }


def hash_join_plan() -> JoinNode:
    """The 4-way *hash*-join tree of the ``columnar_join`` scenario.

    Same shape and workload as the nested-loops scenarios above, but the
    equi-conditions compile to symmetric hash joins, which is where the
    columnar state and the compiled probe kernels live.
    """
    a = Source("A", ["a"])
    b = Source("B", ["b"])
    c = Source("C", ["c"])
    d = Source("D", ["d"])
    ab = JoinNode(a, b, Comparison("=", Field("A.a"), Field("B.b")))
    abc = JoinNode(ab, c, Comparison("=", Field("A.a"), Field("C.c")))
    return JoinNode(abc, d, Comparison("=", Field("A.a"), Field("D.d")))


def run_columnar_scenario(config: HotpathConfig, batch_size: int) -> Dict[str, object]:
    """The 4-way hash-join workload through the builder's hash-join tree."""
    box = PhysicalBuilder().build(hash_join_plan())
    sources = {name: PhysicalStream([], name) for name in STREAMS}
    windows = {name: config.window for name in STREAMS}
    executor = QueryExecutor(sources, windows, box, meter=CostMeter())
    executor.add_sink(CollectorSink())

    feed = make_batches(config, batch_size)
    timed_elements = 0
    timed_seconds = 0.0
    started: Optional[float] = None
    state_at_start = 0
    for name, batch in feed:
        t = batch.first_start
        if started is None and t >= config.measure_start:
            state_at_start = executor.state_value_count()
            started = time.perf_counter()
        if started is not None and timed_seconds == 0.0 and t >= config.measure_end:
            timed_seconds = time.perf_counter() - started
        executor.push_batch(name, batch)
        if started is not None and timed_seconds == 0.0:
            timed_elements += len(batch)
    if started is not None and timed_seconds == 0.0:
        timed_seconds = time.perf_counter() - started
    executor.finish()

    return {
        "batch_size": batch_size,
        "elements_timed": timed_elements,
        "seconds": round(timed_seconds, 6),
        "elements_per_sec": round(timed_elements / timed_seconds, 1),
        "state_values_at_measure_start": state_at_start,
        "results_delivered": executor.gate.delivered,
        "meter_total": executor.meter.total,
    }


# --------------------------------------------------------------------- #
# Checkpoint / restore timing
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryConfig:
    """The checkpoint/restore scenario: a two-stream hash-join service."""

    count: int   # total elements across both streams
    window: int  # CQL RANGE of both inputs, chronons
    domain: int  # join-key values drawn from [0, domain)


RECOVERY_FULL = RecoveryConfig(count=20000, window=200, domain=64)
RECOVERY_SMOKE = RecoveryConfig(count=2000, window=50, domain=32)


def run_recovery_scenario(config: RecoveryConfig) -> Dict[str, object]:
    """Checkpoint a mid-stream service, restore it, replay the tail.

    Reports the three recovery costs a deployment plans around — snapshot
    size, checkpoint pause (capture + encode + write) and the latency from
    starting the restore until the recovered service delivers its first
    new result — plus the replay throughput and a byte-identity check
    against an uninterrupted twin.
    """
    import tempfile

    from repro.cql import Catalog
    from repro.recovery import CheckpointManager, restore_service
    from repro.service import ContinuousQueryService, ControllerPolicy

    def make_service() -> ContinuousQueryService:
        service = ContinuousQueryService(
            catalog=Catalog({"bids": ("item",), "asks": ("item",)}),
            policy=ControllerPolicy(period=10**9),
        )
        service.register(
            "q",
            f"SELECT * FROM bids [RANGE {config.window}], "
            f"asks [RANGE {config.window}] WHERE bids.item = asks.item",
        )
        return service

    # The low bits of i * _MIX preserve i's parity, which is also the
    # source selector — shift them out so both streams share key values.
    feed = [
        (
            "bids" if i % 2 == 0 else "asks",
            element((((i * _MIX) >> 7) % config.domain,), i, i + 1),
        )
        for i in range(config.count)
    ]
    cut = config.count // 2

    baseline = make_service()
    for source, item in feed:
        baseline.hub.push(source, item)
    baseline.finish()

    victim = make_service()
    for source, item in feed[:cut]:
        victim.hub.push(source, item)
    state_values = victim.registry.get("q").executor.state_value_count()

    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    try:
        started = time.perf_counter()
        snapshot_bytes = CheckpointManager(victim).checkpoint(path)
        checkpoint_seconds = time.perf_counter() - started
        del victim  # the process dies; only the snapshot file survives

        restore_started = time.perf_counter()
        restored = restore_service(path, policy=ControllerPolicy(period=10**9))
        restore_seconds = time.perf_counter() - restore_started
    finally:
        os.unlink(path)

    query = restored.registry.get("q")
    delivered_at_restore = len(query.results)
    first_output_seconds: Optional[float] = None
    skip = dict(restored.hub.offsets)
    replayed = 0
    replay_started = time.perf_counter()
    for source, item in feed:
        pending = skip.get(source, 0)
        if pending:
            skip[source] = pending - 1
            continue
        restored.hub.push(source, item)
        replayed += 1
        if (
            first_output_seconds is None
            and len(query.results) > delivered_at_restore
        ):
            first_output_seconds = time.perf_counter() - restore_started
    replay_seconds = time.perf_counter() - replay_started
    restored.finish()

    return {
        "elements": config.count,
        "checkpoint_at_element": cut,
        "state_values_at_checkpoint": state_values,
        "snapshot_bytes": snapshot_bytes,
        "checkpoint_seconds": round(checkpoint_seconds, 6),
        "restore_seconds": round(restore_seconds, 6),
        "restore_to_first_output_seconds": (
            None
            if first_output_seconds is None
            else round(first_output_seconds, 6)
        ),
        "replayed_elements": replayed,
        "replay_elements_per_sec": round(replayed / replay_seconds, 1),
        "results_match": query.results
        == baseline.registry.get("q").results,
    }


# --------------------------------------------------------------------- #
# Sharded execution
# --------------------------------------------------------------------- #


SHARD_SWEEP = (1, 2, 4)

#: The shard sweep's own configuration: a larger window than the hotpath
#: scenarios so live nested-loops state (and with it the per-element probe
#: scan) dominates the per-element orchestration overhead of routing,
#: batching and the ordered merge.  ``migrate_at`` is unused here.
SHARD_FULL = HotpathConfig(
    count=1600, rate=4, window=400, migrate_at=0,
    measure_start=150, measure_end=380, domain=4096, bucket=50,
)

SHARD_SMOKE = HotpathConfig(
    count=480, rate=4, window=120, migrate_at=0,
    measure_start=45, measure_end=110, domain=512, bucket=20,
)


def _shard_value(i: int, s: int, domain: int) -> int:
    """Join-key value for element ``i`` of stream ``s``: mostly misses.

    The plain Knuth mix keeps the four streams disjoint (the multiplier
    is odd, so the distinct residues ``i * 4 + s`` never collide modulo a
    power-of-two domain) — every probe is a full state scan producing
    nothing, which is exactly the scan-bound workload the sweep wants.
    Every 16th element each stream emits one "hot" key from a small
    shared cycle instead, so the 4-way join does deliver rows and the
    byte-identity oracle compares real output, not two empty lists.
    """
    if i % 16 == s * len(STREAMS):
        return (i // 16) % 64
    return ((i * len(STREAMS) + s) * _MIX) % domain


def make_shard_batches(config: HotpathConfig) -> List[Tuple[str, Batch]]:
    """Per-(chronon, source) runs with single-column tuple payloads.

    The shard router partitions on a payload *column*, so unlike
    :func:`make_events` the values are wrapped in 1-tuples — the same
    row shape the relational hash-join scenarios consume.
    """
    per_chronon: Dict[Tuple[int, str], List[object]] = {}
    for i in range(config.count):
        t = i // config.rate
        for s, name in enumerate(STREAMS):
            item = element((_shard_value(i, s, config.domain),), t, t + 1)
            per_chronon.setdefault((t, name), []).append(item)
    return [
        (name, Batch(per_chronon[(t, name)], source=name))
        for t, name in sorted(
            per_chronon, key=lambda k: (k[0], STREAMS.index(k[1]))
        )
    ]


def run_shard_scenario(
    config: HotpathConfig, shards: int, nested_loops: bool = True
) -> Tuple[Dict[str, object], List, Dict[str, object]]:
    """The 4-way equi-join workload under ``shards`` workers.

    ``shards == 0`` runs the identical physical plan in one plain
    ``QueryExecutor`` — the byte-identity oracle for the sweep.  With
    ``nested_loops`` the equi-conditions are forced onto nested-loops
    joins whose probe cost is linear in live state: hash-partitioning
    then cuts total probe work N-fold *algorithmically*, which is why
    the sweep shows a throughput win even on a one-CPU host.

    Returns ``(result, outputs, meter)`` with ``meter`` carrying
    ``total`` and ``by_category``; for the sharded runs it is the
    ``MetricsRecorder.aggregate`` of the per-worker recorders.
    """
    builder = {"force_nested_loops": True} if nested_loops else {}
    windows = {name: config.window for name in STREAMS}
    sink = CollectorSink()
    if shards == 0:
        executor = QueryExecutor(
            {name: PhysicalStream([], name) for name in STREAMS},
            windows,
            PhysicalBuilder(**builder).build(hash_join_plan()),
            meter=CostMeter(),
        )
    else:
        executor = ShardedExecutor(
            Query(hash_join_plan(), windows),
            shards,
            transport=LocalTransport(),
            builder_config=builder,
            batch_size=config.rate,
            bucket_size=config.bucket,
        )
    executor.add_sink(sink)

    feed = make_shard_batches(config)
    timed_elements = 0
    timed_seconds = 0.0
    started: Optional[float] = None
    for name, batch in feed:
        t = batch.first_start
        if started is None and t >= config.measure_start:
            started = time.perf_counter()
        if started is not None and timed_seconds == 0.0 and t >= config.measure_end:
            timed_seconds = time.perf_counter() - started
        executor.push_batch(name, batch)
        if started is not None and timed_seconds == 0.0:
            timed_elements += len(batch)
    if started is not None and timed_seconds == 0.0:
        timed_seconds = time.perf_counter() - started
    executor.finish()

    if shards == 0:
        meter: Dict[str, object] = {
            "total": executor.meter.total,
            "by_category": dict(sorted(executor.meter.by_category.items())),
        }
        delivered = executor.gate.delivered
    else:
        summary = executor.metrics_summary()
        meter = {
            "total": summary["meter"]["total"],
            "by_category": dict(sorted(summary["meter"]["by_category"].items())),
        }
        delivered = sum(s["delivered"] for s in executor.shard_stats())
        executor.close()

    outputs = [(e.payload, e.start, e.end, e.flag) for e in sink.elements]
    result: Dict[str, object] = {
        "shards": shards,
        "nested_loops": nested_loops,
        "elements_timed": timed_elements,
        "seconds": round(timed_seconds, 6),
        "elements_per_sec": round(timed_elements / timed_seconds, 1),
        "results_delivered": delivered,
        "meter_total": meter["total"],
    }
    return result, outputs, meter


def run_shard_sweep(config: HotpathConfig) -> Dict[str, object]:
    """The full sharding section: NL sweep + hash-join meter cross-check.

    The byte-identity of every sharded run against the single-process
    oracle is the section's hard correctness gate; the probe-work column
    shows the N-fold state-scan cut that produces the speedup.
    """
    oracle, oracle_outputs, oracle_meter = run_shard_scenario(config, 0)
    print(
        f"{'shard oracle':16s} shards=1proc "
        f"{oracle['elements_per_sec']:>12.1f} elements/sec "
        f"({oracle['elements_timed']} elements in {oracle['seconds']:.3f} s, "
        f"probe work {oracle['meter_total']})"
    )
    sweep: Dict[str, float] = {}
    speedup: Dict[str, float] = {}
    probe_work: Dict[str, int] = {"single_process": oracle_meter["total"]}
    outputs_match = True
    for shards in SHARD_SWEEP:
        result, outputs, meter = run_shard_scenario(config, shards)
        matched = outputs == oracle_outputs
        outputs_match = outputs_match and matched
        sweep[str(shards)] = result["elements_per_sec"]
        probe_work[str(shards)] = meter["total"]
        if shards > 1:
            speedup[str(shards)] = round(
                result["elements_per_sec"] / oracle["elements_per_sec"], 2
            )
        print(
            f"{'sharded_nl':16s} shards={shards:<5d} "
            f"{result['elements_per_sec']:>12.1f} elements/sec "
            f"({result['elements_timed']} elements in {result['seconds']:.3f} s, "
            f"probe work {meter['total']}, outputs match: {matched})"
        )

    # Hash joins probe per key, so shard workers together do exactly the
    # single-process work — the aggregated meter must reproduce it to the
    # unit, category by category (grouped finalisation and NL scans are
    # the two documented exceptions; neither is in this plan).
    _, hash_single_outputs, hash_single_meter = run_shard_scenario(
        config, 0, nested_loops=False
    )
    _, hash_sharded_outputs, hash_sharded_meter = run_shard_scenario(
        config, 2, nested_loops=False
    )
    meter_exact = hash_sharded_meter == hash_single_meter
    hash_match = hash_sharded_outputs == hash_single_outputs
    print(
        f"{'sharded_hash':16s} shards=2     meter aggregation exact: "
        f"{meter_exact}, outputs match: {hash_match}"
    )

    return {
        "cpu_count": os.cpu_count(),
        "transport": "local",
        "plan": "4-way nested-loops equi-join",
        "config": asdict(config),
        "single_process_elements_per_sec": oracle["elements_per_sec"],
        "sweep": sweep,
        "speedup": speedup,
        "probe_work": probe_work,
        "outputs_match": outputs_match and hash_match,
        "meter_aggregation_exact": meter_exact,
        "results_delivered": oracle["results_delivered"],
    }


#: Model-checker presets timed by the smoke entry — one migration scenario
#: and one transport scenario keeps the smoke run in seconds; the full run
#: times every preset.
MODELCHECK_SMOKE_PRESETS = ("genmig-figure2", "shard-merge")


def run_modelcheck_smoke(smoke: bool) -> Dict[str, object]:
    """Time the protocol model checker: schedules explored per second.

    The explorer replays the real executor once per schedule, so its
    throughput is a proxy for executor start-up plus small-feed run cost —
    a regression here means every CI ``modelcheck`` job gets slower.  Each
    preset must come back *passed* and *complete*; a result that merely
    ran fast but found a violation (or exhausted its budget) fails the
    benchmark run rather than recording a meaningless rate.
    """
    from repro.analysis.modelcheck import PRESETS, build_scenario
    from repro.analysis.races import SHARD_PRESETS, build_shard_scenario

    names = MODELCHECK_SMOKE_PRESETS if smoke else tuple(
        sorted(set(PRESETS) | set(SHARD_PRESETS))
    )
    presets: Dict[str, object] = {}
    total_schedules = 0
    total_seconds = 0.0
    for name in names:
        scenario = (
            build_shard_scenario(name) if name in SHARD_PRESETS
            else build_scenario(name)
        )
        started = time.perf_counter()
        result = scenario.run_check()
        elapsed = time.perf_counter() - started
        if not (result.passed and result.complete):
            raise SystemExit(
                f"modelcheck_smoke: preset {name!r} did not pass cleanly "
                f"(passed={result.passed}, complete={result.complete})"
            )
        total_schedules += result.explored
        total_seconds += elapsed
        presets[name] = {
            "explored": result.explored,
            "pruned": result.pruned,
            "seconds": round(elapsed, 4),
            "schedules_per_sec": round(result.explored / elapsed, 1),
        }
    return {
        "presets": presets,
        "schedules_explored": total_schedules,
        "seconds": round(total_seconds, 4),
        "schedules_per_sec": round(total_schedules / total_seconds, 1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI bitrot checks (seconds, not minutes)",
    )
    parser.add_argument(
        "--output", default=None,
        help="path of the JSON report (default: BENCH_hotpath.json beside this script)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="a previous BENCH_hotpath.json to compare against (embeds speedups)",
    )
    parser.add_argument(
        "--regress", default=None,
        help="a committed BENCH_hotpath.json to gate against: exit 1 when any "
        "scenario's throughput falls below --min-ratio of its capture",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.8,
        help="minimum current/committed throughput ratio for --regress "
        "(default 0.8, i.e. fail on a >20%% drop)",
    )
    args = parser.parse_args(argv)

    config = SMOKE if args.smoke else FULL
    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
    )
    baseline = None
    if args.baseline:
        # Load before the (minutes-long) run so a bad path fails fast.
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    regress = None
    if args.regress:
        with open(args.regress) as handle:
            regress = json.load(handle)

    sweep_sizes = sorted({1, 2, config.rate})
    report: Dict[str, object] = {
        "benchmark": "hotpath-4way-join",
        "mode": "smoke" if args.smoke else "full",
        "config": asdict(config),
        "target_state_values": config.target_state,
        "python": platform.python_version(),
        "scenarios": {},
        "batch_sweep": {},
    }
    keyed_boxes = (keyed_left_deep_box, keyed_right_deep_box)
    fluid_ranges = 8
    scenario_specs: Tuple[
        Tuple[str, bool, Optional[tuple], Callable[[], object]], ...
    ] = (
        ("steady", False, None, GenMig),
        ("genmig_inflight", True, None, GenMig),
        # The keyed (hash-join) triple: the same 4-way workload over
        # hash equi-join trees, once steady, once under GenMig and once
        # under fluid migration — the three numbers the fluid section
        # compares are from the same run, same plan pair, same feed.
        ("steady_keyed", False, keyed_boxes, GenMig),
        ("genmig_keyed_inflight", True, keyed_boxes, GenMig),
        (
            "fluid_inflight",
            True,
            keyed_boxes,
            lambda: FluidMigration(ranges=fluid_ranges),
        ),
    )
    for key, migrate, boxes, make_strategy in scenario_specs:
        sweep: Dict[str, float] = {}
        for batch_size in sweep_sizes:
            result = run_scenario(
                config,
                migrate,
                batch_size,
                make_boxes=boxes,
                make_strategy=make_strategy,
            )
            sweep[str(batch_size)] = result["elements_per_sec"]
            if batch_size == config.rate:
                # Headline numbers: the batch feed at the workload's natural
                # run length (rate elements per chronon per stream).
                report["scenarios"][key] = result
            print(
                f"{key:22s} batch={batch_size:<3d} "
                f"{result['elements_per_sec']:>12.1f} elements/sec "
                f"({result['elements_timed']} elements in {result['seconds']:.3f} s, "
                f"{result['state_values_at_measure_start']} state values)"
            )
        report["batch_sweep"][key] = sweep
        headline = report["scenarios"].get(key)
        if headline and "phase_latency_us" in headline:
            line = ", ".join(
                f"{phase} p99 "
                + (f"{p['p99']:.1f}us" if "p99" in p else "n/a")
                + f" ({p['pushes']} pushes)"
                for phase, p in headline["phase_latency_us"].items()
            )
            print(f"{'':22s} phases: {line}")

    # Fluid vs GenMig on the identical keyed plan pair: every ratio is
    # same-run (same host, same feed, headline batch size), so the gate
    # below is immune to runner-to-runner absolute noise.  The timed
    # window lies entirely inside both migrations' concurrent phases, so
    # elements_per_sec / latency_us ARE the mid-migration numbers.
    fluid_result = report["scenarios"]["fluid_inflight"]
    genmig_keyed = report["scenarios"]["genmig_keyed_inflight"]
    steady_keyed = report["scenarios"]["steady_keyed"]
    report["fluid"] = {
        "ranges": fluid_ranges,
        "throughput_vs_genmig_keyed": round(
            fluid_result["elements_per_sec"] / genmig_keyed["elements_per_sec"], 2
        ),
        "p99_vs_genmig_keyed": round(
            fluid_result["latency_us"]["p99"] / genmig_keyed["latency_us"]["p99"], 3
        ),
        "throughput_vs_steady_keyed": round(
            fluid_result["elements_per_sec"] / steady_keyed["elements_per_sec"], 2
        ),
        "genmig_keyed_throughput_vs_steady_keyed": round(
            genmig_keyed["elements_per_sec"] / steady_keyed["elements_per_sec"], 2
        ),
        "p99_vs_steady_keyed": round(
            fluid_result["latency_us"]["p99"] / steady_keyed["latency_us"]["p99"], 3
        ),
        "genmig_keyed_p99_vs_steady_keyed": round(
            genmig_keyed["latency_us"]["p99"] / steady_keyed["latency_us"]["p99"], 3
        ),
    }
    print(
        f"{'fluid':22s} mid-migration throughput "
        f"{report['fluid']['throughput_vs_genmig_keyed']:.2f}x of genmig "
        f"(fluid {report['fluid']['throughput_vs_steady_keyed']:.2f}x of "
        f"steady vs genmig "
        f"{report['fluid']['genmig_keyed_throughput_vs_steady_keyed']:.2f}x), "
        f"p99 {report['fluid']['p99_vs_genmig_keyed']:.2f}x of genmig"
    )

    fusion_config = FUSION_SMOKE if args.smoke else FUSION_FULL
    clear_kernel_cache()
    fusion_results: Dict[str, Dict[str, object]] = {}
    for key, fuse in (("unfused_chain", False), ("fused_chain", True)):
        result = run_fusion_scenario(fusion_config, fuse, fusion_config.rate)
        fusion_results[key] = result
        report["scenarios"][key] = result
        print(
            f"{key:16s} batch={fusion_config.rate:<3d} "
            f"{result['elements_per_sec']:>12.1f} elements/sec "
            f"({result['elements_timed']} elements in {result['seconds']:.3f} s, "
            f"{result['operators']} operators)"
        )
    # Rebuilding the same plan (as the re-optimizer would for a candidate)
    # must hit the structural compile cache, not recompile.
    PhysicalBuilder().build(filter_chain_plan(fusion_config))
    fused_speedup = (
        fusion_results["fused_chain"]["elements_per_sec"]
        / fusion_results["unfused_chain"]["elements_per_sec"]
    )
    report["fusion"] = {
        "speedup": round(fused_speedup, 2),
        "meter_totals_match": (
            fusion_results["fused_chain"]["meter_total"]
            == fusion_results["unfused_chain"]["meter_total"]
        ),
        "kernel_cache": kernel_cache_stats(),
    }
    print(
        f"{'fusion':16s} speedup {fused_speedup:.2f}x, "
        f"meter totals match: {report['fusion']['meter_totals_match']}, "
        f"kernel cache: {report['fusion']['kernel_cache']}"
    )

    # The builder's hash-join tree: a plain throughput scenario.
    result = run_columnar_scenario(config, config.rate)
    report["scenarios"]["columnar_join"] = result
    print(
        f"{'columnar_join':16s} batch={config.rate:<3d} "
        f"{result['elements_per_sec']:>12.1f} elements/sec "
        f"({result['elements_timed']} elements in {result['seconds']:.3f} s, "
        f"{result['state_values_at_measure_start']} state values)"
    )

    # Checkpoint/restore: size and pause of a mid-stream snapshot, and how
    # long a crashed service takes to produce its first post-restore result.
    recovery = run_recovery_scenario(RECOVERY_SMOKE if args.smoke else RECOVERY_FULL)
    report["recovery"] = recovery
    first_output = recovery["restore_to_first_output_seconds"]
    print(
        f"{'recovery':16s} snapshot {recovery['snapshot_bytes']} bytes "
        f"({recovery['state_values_at_checkpoint']} state values), "
        f"pause {recovery['checkpoint_seconds'] * 1e3:.1f} ms, "
        f"first output "
        f"{'n/a' if first_output is None else f'{first_output * 1e3:.1f} ms'} "
        f"after restore start, replay "
        f"{recovery['replay_elements_per_sec']:.1f} elements/sec, "
        f"results match: {recovery['results_match']}"
    )

    # Sharded execution: the N-fold probe-work cut of hash partitioning,
    # byte-checked against the single-process oracle in the same run.
    sharding = run_shard_sweep(SHARD_SMOKE if args.smoke else SHARD_FULL)
    report["sharding"] = sharding
    print(
        f"{'sharding':16s} speedup "
        + ", ".join(f"N={n} {s:.2f}x" for n, s in sharding["speedup"].items())
        + f", outputs match: {sharding['outputs_match']}, "
        f"meter aggregation exact: {sharding['meter_aggregation_exact']} "
        f"({sharding['cpu_count']} cpu)"
    )

    # Protocol model checker: schedule-replay throughput.  Kept out of
    # report["scenarios"] deliberately — the --regress gate reads
    # elements_per_sec there, and this section measures schedules/sec.
    modelcheck = run_modelcheck_smoke(args.smoke)
    report["modelcheck_smoke"] = modelcheck
    print(
        f"{'modelcheck':16s} {modelcheck['schedules_per_sec']:>12.1f} schedules/sec "
        f"({modelcheck['schedules_explored']} schedules in "
        f"{modelcheck['seconds']:.3f} s, {len(modelcheck['presets'])} presets)"
    )

    if baseline is not None:
        comparison = {}
        for key, result in report["scenarios"].items():
            before = baseline.get("scenarios", {}).get(key)
            if before:
                speedup = result["elements_per_sec"] / before["elements_per_sec"]
                comparison[key] = {
                    "baseline_elements_per_sec": before["elements_per_sec"],
                    "speedup": round(speedup, 2),
                }
                print(f"{key:16s} speedup vs baseline: {speedup:.2f}x")
        report["baseline"] = {
            "path": os.path.basename(args.baseline),
            "comparison": comparison,
        }

    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    if regress is not None:
        # The committed capture is a full run; smoke runs carry far less
        # state and are faster, so this gate only catches gross bitrot —
        # which is exactly what a shared CI runner can check reliably.
        failed = False
        for key, result in report["scenarios"].items():
            if key in ("fused_chain", "unfused_chain"):
                # Gated below on the fused/unfused speedup — a same-run
                # ratio, so it survives runner-to-runner absolute noise
                # that the paired scenarios are sensitive to.
                continue
            committed = regress.get("scenarios", {}).get(key)
            if not committed:
                continue
            ratio = result["elements_per_sec"] / committed["elements_per_sec"]
            status = "ok" if ratio >= args.min_ratio else "REGRESSION"
            print(
                f"{key:16s} {ratio:.2f}x of committed "
                f"({committed['elements_per_sec']} elements/sec) [{status}]"
            )
            failed = failed or ratio < args.min_ratio
        committed_fusion = regress.get("fusion")
        if committed_fusion:
            ratio = report["fusion"]["speedup"] / committed_fusion["speedup"]
            status = "ok" if ratio >= args.min_ratio else "REGRESSION"
            print(
                f"{'fusion speedup':16s} {ratio:.2f}x of committed "
                f"({committed_fusion['speedup']}x fused/unfused) [{status}]"
            )
            failed = failed or ratio < args.min_ratio
            if not report["fusion"]["meter_totals_match"]:
                print("fusion            fused meter total diverged [REGRESSION]")
                failed = True
        # Recovery's hard gate is correctness: checkpoint → restore →
        # replay must reproduce the uninterrupted run byte for byte.  The
        # replay throughput is additionally ratio-gated same-mode (the
        # timings are absolute and runner-sensitive, like the scenarios).
        if not report["recovery"]["results_match"]:
            print("recovery          restored run diverged from uninterrupted run [REGRESSION]")
            failed = True
        committed_recovery = regress.get("recovery")
        if committed_recovery and report["mode"] == regress.get("mode"):
            ratio = (
                report["recovery"]["replay_elements_per_sec"]
                / committed_recovery["replay_elements_per_sec"]
            )
            status = "ok" if ratio >= args.min_ratio else "REGRESSION"
            print(
                f"{'recovery replay':16s} {ratio:.2f}x of committed "
                f"({committed_recovery['replay_elements_per_sec']} elements/sec) "
                f"[{status}]"
            )
            failed = failed or ratio < args.min_ratio
        # Sharding's hard gate is byte identity: the merged sharded output
        # must equal the single-process run's, and the aggregated shard
        # meters must reproduce the single-process hash-join meter exactly.
        # The speedup itself is gated by a same-run ratio when the modes
        # match, and cross-mode only by the demand that sharding
        # still beats single-process at the widest sweep point (the win
        # grows with state size, so a smoke run cannot be held to a full
        # capture's ratio).
        if not report["sharding"]["outputs_match"]:
            print("sharding          merged output diverged from single process [REGRESSION]")
            failed = True
        if not report["sharding"]["meter_aggregation_exact"]:
            print("sharding          aggregated shard meters diverged [REGRESSION]")
            failed = True
        committed_sharding = regress.get("sharding")
        widest = str(max(SHARD_SWEEP))
        if committed_sharding and report["mode"] == regress.get("mode"):
            committed_speedup = committed_sharding["speedup"].get(widest)
            if committed_speedup:
                ratio = report["sharding"]["speedup"][widest] / committed_speedup
                status = "ok" if ratio >= args.min_ratio else "REGRESSION"
                print(
                    f"{'sharding speedup':16s} {ratio:.2f}x of committed "
                    f"({committed_speedup}x at N={widest}) [{status}]"
                )
                failed = failed or ratio < args.min_ratio
        else:
            speedup = report["sharding"]["speedup"][widest]
            status = "ok" if speedup > 1.0 else "REGRESSION"
            print(
                f"{'sharding speedup':16s} {speedup:.2f}x this run at "
                f"N={widest} (cross-mode) [{status}]"
            )
            failed = failed or speedup <= 1.0
        # Fluid migration's reason to exist is the mid-migration cliff:
        # in the same run, on the identical keyed plan pair, its in-flight
        # throughput must at least match GenMig's.  A same-run ratio, so
        # no --min-ratio slack is needed or given; the p99 comparison is
        # reported above but only gated on full runs (a smoke window has
        # too few pushes for a stable tail percentile).
        fluid_ratio = report["fluid"]["throughput_vs_genmig_keyed"]
        status = "ok" if fluid_ratio >= 1.0 else "REGRESSION"
        print(
            f"{'fluid throughput':16s} {fluid_ratio:.2f}x of same-run genmig "
            f"(keyed plan pair, mid-migration) [{status}]"
        )
        failed = failed or fluid_ratio < 1.0
        if report["mode"] == "full":
            p99_ratio = report["fluid"]["p99_vs_genmig_keyed"]
            status = "ok" if p99_ratio <= 1.0 else "REGRESSION"
            print(
                f"{'fluid p99':16s} {p99_ratio:.2f}x of same-run genmig "
                f"(lower is better) [{status}]"
            )
            failed = failed or p99_ratio > 1.0
        if failed:
            print(f"throughput fell below {args.min_ratio:.2f}x of {args.regress}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
