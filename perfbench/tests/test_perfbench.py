"""Tests of the benchmark itself: feeds, span arithmetic, tiny end-to-end runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from feeds import StreamSpec, generate
from hostspeed import REFERENCE_US, Probe
from trace import Tracer
from workloads import WORKLOADS, checkpoint_restore, join_drift, shared_feed_mix

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# Feeds
# --------------------------------------------------------------------- #


def test_feed_is_deterministic_per_seed():
    streams = join_drift().streams
    first = generate(streams, 500, 200, seed=7)
    assert first == generate(streams, 500, 200, seed=7)
    assert first != generate(streams, 500, 200, seed=8)


def _per_source(feed):
    out = {}
    for source, payloads, t in feed:
        out.setdefault(source, []).extend((payload, t) for payload in payloads)
    return out


def test_feed_is_ordered_and_follows_the_rate_schedule():
    streams = (StreamSpec("A", 0.2, 2.0, 10), StreamSpec("B", 2.0, 0.2, 10))
    feed = generate(streams, 2000, 1000, seed=1)
    assert [t for _, _, t in feed] == sorted(t for _, _, t in feed)
    per_source = _per_source(feed)
    before = {s: sum(1 for _, t in pairs if t < 1000) for s, pairs in per_source.items()}
    after = {s: len(pairs) - before[s] for s, pairs in per_source.items()}
    assert before["A"] < 400 < before["B"] and after["B"] < 400 < after["A"]


def test_every_pair_of_streams_shares_keys():
    # A generator that derives keys from the element index and the stream
    # number can leave each stream one residue class of keys, so its joins
    # never match; here every stream meets every other.
    workload = join_drift()
    feed = generate(workload.streams, 2000, 800, seed=3)
    keys = {
        name: {payload[0] for payload, _ in pairs}
        for name, pairs in _per_source(feed).items()
    }
    assert set(keys) == set(workload.sources)
    for a in workload.sources:
        for b in workload.sources:
            assert keys[a] & keys[b]


# --------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------- #


class FakeClock:
    def __init__(self, *times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_child_spans():
    tracer = Tracer(FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer.enter("a")  # 0
    tracer.enter("b")  # 1
    tracer.exit()  # 3: b = 2
    tracer.enter("c")  # 4
    tracer.enter("c")  # 5
    tracer.exit()  # 6: inner c = 1
    tracer.exit()  # 8: outer c = 4, self 3
    tracer.exit()  # 10: a = 10, self 10 - 2 - 4
    assert tracer.self_s == {"a": 4, "b": 2, "c": 4}
    # Nested spans of one layer count once towards its total time.
    assert tracer.total_s == {"a": 10, "b": 2, "c": 4}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}


def test_wrapped_methods_count_calls_and_elements_once_per_owner():
    class Op:
        def __init__(self, downstream=None):
            self.downstream = downstream

        def process_batch(self, batch, port=0):
            self.process(batch[0], port)  # re-entry: the same call
            if self.downstream is not None:
                self.downstream.process(batch[0], 0)

        def process(self, element, port=0):
            pass

    tracer = Tracer()
    sink = Op()
    head = Op(sink)
    for op in (head, sink):
        tracer.wrap(op, "process_batch", "layer", lambda args: len(args[0]))
        tracer.wrap(op, "process", "layer", lambda args: 1)
    head.process_batch([1, 2, 3])
    assert tracer.calls["layer"] == 2  # head's batch, sink's element
    assert tracer.counts["layer.in"] == 4
    assert not tracer._stack


def test_speed_factor_scales_the_host_part_of_latency_only():
    probe = Probe()
    probe.units, probe.seconds = 10, 10 * 2 * REFERENCE_US * 1e-6  # host at half speed
    deliveries = bench.Deliveries(1, t0=0.0, tick=1e-3)
    # Waited 2 ms for its chronon, then 1 ms of backlog and call.
    deliveries.latency, deliveries.host = [[3e-3]], [[1e-3]]
    deliveries.clock, deliveries.segment = [[5.0]], [[0]]
    timeline = bench.Timeline(None, deliveries, bench.Marks(1), probe=probe)
    figures = bench.latency_metrics([timeline])
    assert figures["latency_p50_raw_ms"] == pytest.approx(3.0)
    assert figures["latency_p50_ms"] == pytest.approx(2.5)


# --------------------------------------------------------------------- #
# Tiny configurations of every workload, end to end
# --------------------------------------------------------------------- #


def _seconds(workload, chronons, trace):
    """The ``--seconds`` that give each leg and pass ``chronons`` chronons."""
    passes = 2 if trace else 1
    return chronons * workload.tick_ms / 1e3 * len(workload.legs()) * passes


TINY = {
    "join_drift": lambda: WORKLOADS["join_drift"](window=40, rate_scale=0.25),
    "shared_feed_mix": lambda: shared_feed_mix(window=40, rate_scale=1.0),
    "checkpoint_restore": lambda: dataclasses.replace(
        checkpoint_restore(window=20, rate_scale=0.25), checkpoint_every=1000
    ),
}
CHRONONS = {"checkpoint_restore": 5000}
#: Figures each workload exists to exercise: > 0 in its traced run.
EXERCISED = {
    "join_drift": ("operators.join.self_ms", "core.split.self_ms", "core.fluid.self_ms"),
    "shared_feed_mix": (
        "operators.aggregate.self_ms",
        "operators.distinct.self_ms",
        "operators.fused.self_ms",
        "engine.sharded.self_ms",
        "core.coalesce.self_ms",
    ),
    "checkpoint_restore": ("recovery.capture_ms", "recovery.read_ms"),
}


def test_tiny_configurations_cover_every_workload():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_its_checks(name):
    workload = TINY[name]()
    seconds = _seconds(workload, CHRONONS.get(name, 14000), trace=True)
    result = bench.run(workload, seed=5, seconds=seconds, trace=True, tick_ms=0)
    assert result.correct and result.failed == 0 and result.attempted > 0
    declared_e2e = {m["name"] for m in DECLARED["end_to_end"]}
    assert declared_e2e <= set(result.end_to_end)
    assert {m["name"] for m in DECLARED["per_layer"]} == set(result.per_layer)
    for key in EXERCISED[name]:
        assert result.per_layer[key] > 0, key
    assert result.per_layer["engine.gate.results"] > 0
    assert result.per_layer["engine.gate.order_violations"] == 0
    if workload.expect_strategy:
        assert result.per_layer["core.migration.count"] >= len(workload.legs())
    else:
        assert result.per_layer["checkpoint_pause_max_ms"] > 0
        assert result.per_layer["recovery_s"] >= result.per_layer["restore_s"] > 0


def test_a_workload_that_cannot_migrate_fails_its_guard():
    workload = dataclasses.replace(TINY["join_drift"](), drift=1.0)
    with pytest.raises(bench.BenchmarkError, match="migration"):
        bench.run(workload, seed=5, seconds=_seconds(workload, 3000, trace=False),
                  trace=False, tick_ms=0)


def test_command_without_the_program_source_exits_non_zero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join_drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
