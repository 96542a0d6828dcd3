"""The benchmark's workloads: feeds, queries, pacing and expectations.

Each builder takes the window length and a rate scale so the tests can
run a tiny configuration of the very same workload; the defaults are the
measured configuration.  ``tick_ms`` is a per-workload constant: chronon
``t`` is due ``t * tick_ms`` after the timed run starts.  It was chosen
so that the seed commit runs each workload at 35-40% of its capacity on
a 2-CPU x86-64 container (see NOTES.md); it is never derived from a
speed measured during a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from feeds import StreamSpec


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        why: what the workload exercises, in one line.
        streams: the sources of the feed and their rates.
        queries: ``(name, cql, shards)`` in registration order.
        window: the ``RANGE`` of every source, in chronons.
        tick_ms: wall milliseconds per chronon of the open-loop schedule.
        drift: share of the run after which the stream rates flip.
        batched: publish one ``publish_batch`` per (chronon, source) run
            instead of one ``publish`` per element.
        strategy: the controller's strategy preference.
        expect_strategy: the strategy the controller must migrate with at
            least once; empty when the workload must not migrate at all.
        next_legs: ``(strategy, expect_strategy)`` of further legs: the
            same feed and queries driven again through a fresh service.
            A run splits its measured time evenly between the legs.
        checkpoint_every: chronons between checkpoints (0: none).
        crash_at: share of the run at which the service crashes and is
            restored from its last checkpoint (0: no crash).
    """

    name: str
    why: str
    streams: Tuple[StreamSpec, ...]
    queries: Tuple[Tuple[str, str, int], ...]
    window: int
    tick_ms: float
    drift: float
    batched: bool
    strategy: str = "auto"
    expect_strategy: str = ""
    checkpoint_every: int = 0
    crash_at: float = 0.0
    next_legs: Tuple[Tuple[str, str], ...] = ()

    def legs(self) -> Tuple["Workload", ...]:
        """The legs of a run, each a workload of one strategy."""
        first = dataclasses.replace(self, next_legs=())
        return (first,) + tuple(
            dataclasses.replace(first, strategy=strategy, expect_strategy=expect)
            for strategy, expect in self.next_legs
        )

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.streams)


def _keys(rate: float, window: int, matches: float) -> int:
    """Key domain giving ``matches`` expected window matches per arrival."""
    return max(1, round(rate * (window + 1) / matches))


def _four_way(window: int) -> str:
    w = window
    return (
        f"SELECT * FROM A [RANGE {w}], B [RANGE {w}], C [RANGE {w}], "
        f"D [RANGE {w}] WHERE A.k = B.k AND B.k = C.k AND C.k = D.k"
    )


def _join_drift_streams(window: int, rate_scale: float) -> Tuple[StreamSpec, ...]:
    # A and B trickle and C and D flood until the drift, then they swap.
    # Against the slow streams an arrival finds 0.5 matches per window, against
    # the fast ones 2, so each arrival joins with 0.5-2 results.
    slow, fast = 0.4 * rate_scale, 1.6 * rate_scale
    keys = _keys(slow, window, 0.5)
    return (
        StreamSpec("A", slow, fast, keys),
        StreamSpec("B", slow, fast, keys),
        StreamSpec("C", fast, slow, keys),
        StreamSpec("D", fast, slow, keys),
    )


def join_drift(window: int = 200, rate_scale: float = 1.0) -> Workload:
    return Workload(
        name="join_drift",
        why="4-way windowed equi-join under a rate flip, driven twice on one "
        "feed: reordered by reference-point GenMig, then by FluidMigration",
        streams=_join_drift_streams(window, rate_scale),
        # FROM order puts the slow streams first: the registered plan is the
        # best one until the drift.
        queries=(("join4", _four_way(window), 1),),
        window=window,
        tick_ms=0.75,
        drift=0.3,
        batched=True,
        expect_strategy="genmig-rp",
        next_legs=(("fluid", "fluid"),),
    )


def shared_feed_mix(window: int = 200, rate_scale: float = 1.0) -> Workload:
    w = window
    slow, fast, steady = 0.01 * rate_scale, 0.12 * rate_scale, 0.05 * rate_scale
    keys = 8
    streams = (
        StreamSpec("S0", slow, fast, keys),
        StreamSpec("S1", slow, fast, keys),
        StreamSpec("S2", fast, slow, keys),
        # Three groups: the sharded query's merge delays its results by a
        # pipeline of router actions, and a large share of them would put
        # the pooled median on the edge between two latency modes.
        StreamSpec("S3", steady, steady, 3),
        StreamSpec("S4", steady, steady, keys),
        StreamSpec("S5", steady, steady, keys),
    )
    queries = (
        ("f0", f"SELECT S0.k, S0.v FROM S0 [RANGE {w}] WHERE S0.v > 500", 1),
        (
            "f1",
            f"SELECT S1.k, S1.v + 1 AS v1 FROM S1 [RANGE {w}] "
            "WHERE S1.v < 300 AND S1.k > 2",
            1,
        ),
        (
            "f3",
            f"SELECT S3.v * 2 AS v2 FROM S3 [RANGE {w}] WHERE S3.k = 1 OR S3.v > 900",
            1,
        ),
        ("f4", f"SELECT S4.k FROM S4 [RANGE {w}] WHERE S4.v % 2 = 0", 1),
        ("f5", f"SELECT * FROM S5 [RANGE {w}] WHERE S5.v >= 100 AND S5.v < 700", 1),
        ("a3", f"SELECT COUNT(*), SUM(S3.v) FROM S3 [RANGE {w}]", 1),
        ("a5", f"SELECT MIN(S5.v), MAX(S5.v) FROM S5 [RANGE {w}]", 1),
        ("g4", f"SELECT S4.k, COUNT(*), MAX(S4.v) FROM S4 [RANGE {w}] GROUP BY S4.k", 1),
        ("g2", f"SELECT S2.k, SUM(S2.v) FROM S2 [RANGE {w}] GROUP BY S2.k", 1),
        ("d5", f"SELECT DISTINCT S5.k FROM S5 [RANGE {w}]", 1),
        ("d0", f"SELECT DISTINCT S0.k FROM S0 [RANGE {w}]", 1),
        (
            "s3",
            f"SELECT S3.k, COUNT(*), SUM(S3.v) FROM S3 [RANGE {w}] GROUP BY S3.k",
            2,
        ),
        # The only join: its order goes stale at the drift, and the aggregate
        # on top makes the plan general, so the controller picks GenMig with
        # Coalesce.
        (
            "j3",
            f"SELECT S0.k, COUNT(*) FROM S0 [RANGE {w}], S1 [RANGE {w}], "
            f"S2 [RANGE {w}] WHERE S0.k = S1.k AND S1.k = S2.k GROUP BY S0.k",
            1,
        ),
    )
    return Workload(
        name="shared_feed_mix",
        why="13 queries on one 6-source feed published element by element: "
        "fan-out, heartbeats, fused kernels, aggregates, sharding, Coalesce",
        streams=streams,
        queries=queries,
        window=w,
        tick_ms=0.7,
        drift=0.2,
        batched=False,
        expect_strategy="genmig",
    )


def checkpoint_restore(window: int = 100, rate_scale: float = 1.0) -> Workload:
    w = window
    rate = 1.0 * rate_scale
    # Half a join result per arrival: enough output for the checkpoint's
    # copy of every sink to grow visibly, little enough that the stalls
    # leave most of the run in steady state.
    keys = _keys(rate, w, 0.5 ** (1 / 3))
    streams = tuple(StreamSpec(name, rate, rate, keys) for name in "ABCD") + (
        # Two groups only: a grouped aggregate emits one result per live group
        # at every advance, so the group count sets its output volume.
        StreamSpec("E", 0.1 * rate_scale, 0.1 * rate_scale, 2),
    )
    queries = (
        ("join4", _four_way(w), 1),
        ("groups", f"SELECT E.k, COUNT(*), SUM(E.v) FROM E [RANGE {w}] GROUP BY E.k", 1),
    )
    return Workload(
        name="checkpoint_restore",
        why="4-way join plus grouped aggregate without drift, checkpointed "
        "periodically, crashed, restored and replayed",
        streams=streams,
        queries=queries,
        window=w,
        tick_ms=1.0,
        drift=1.0,
        batched=True,
        checkpoint_every=2000,
        crash_at=0.5,
    )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "join_drift": join_drift,
    "shared_feed_mix": shared_feed_mix,
    "checkpoint_restore": checkpoint_restore,
}
