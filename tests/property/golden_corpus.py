"""Golden corpus of the stateful plan shapes.

A fixed table of seeded cases — nine plan shapes × three schedulers ×
batch sizes {1, 2, 3, 64} × {no migration, a GenMig migration}, two input
seeds each — with the output stream and the cost-meter totals each case
produced when the fixture was recorded.  The fixture
(``golden_corpus.json``) is the byte-identity oracle of deletions in the
stateful operators, replayed by ``test_columnar_equivalence.py``:

* the hash-join and aggregate shapes (first plan group) were recorded
  with the element-wise hash-join layout, before that layout was deleted;
* the nested-loops join, grouped aggregate, distinct, difference and
  union shapes (second plan group) were recorded while stateful
  operators still split uniform-start runs into a first element and a
  deferred run tail, before that split was deleted.

Each plan group only appends cases: seeds run on across groups, so the
cases of an earlier group keep their inputs, and their bytes, unchanged.

Every output element is stored as ``(payload, start, end, flag)``;
:class:`~fractions.Fraction` values (GenMig's sub-chronon split times)
are stored as ``{"n": numerator, "d": denominator}`` so the replay
compares them exactly, type included.

Re-recording overwrites the reference with whatever the engine does
now, so only do it for an intended behaviour change::

    PYTHONPATH=src python tests/property/golden_corpus.py
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Dict, List, Tuple

from repro.core import GenMig
from repro.engine import GlobalOrderScheduler, QueryExecutor, RoundRobinScheduler
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    DifferenceNode,
    DistinctNode,
    Field,
    JoinNode,
    Literal,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)
from repro.streams import CollectorSink, timestamped_stream
from repro.temporal import StreamElement

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.json")

WINDOWS = {"A": 12, "B": 12}

A = Source("A", ["k", "v"])
B = Source("B", ["k"])


def hash_join_plan():
    """A ⋈ B on the key column: the hash-join probe/build kernels."""
    return JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))


def join_chain_plan():
    """A fused stateless chain *above* the join: the fused kernel
    re-columnarises its output so the flow stays columnar."""
    join = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
    return SelectNode(
        ProjectNode(join, [(Field("A.v"), "v"), (Field("B.k"), "bk")]),
        Comparison(">", Field("v"), Literal(1)),
    )


def aggregate_plan():
    """Ungrouped multi-function aggregate: the compiled segment fold."""
    return AggregateNode(
        A,
        [
            AggregateSpec("count"),
            AggregateSpec("sum", "A.v"),
            AggregateSpec("avg", "A.v"),
            AggregateSpec("min", "A.v"),
            AggregateSpec("max", "A.v"),
        ],
    )


def join_aggregate_plan():
    """Aggregate over a join: both stateful kernels in one pipeline."""
    join = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
    return AggregateNode(
        join, [AggregateSpec("count"), AggregateSpec("sum", "A.v")]
    )


def nl_join_plan():
    """A ⋈ B on a theta (non-equi) condition: the nested-loops join."""
    return JoinNode(A, B, Comparison("<", Field("A.k"), Field("B.k")))


def grouped_aggregate_plan():
    """Aggregate grouped by key: the element-path segment sweep."""
    return AggregateNode(
        A,
        [AggregateSpec("count"), AggregateSpec("sum", "A.v"), AggregateSpec("max", "A.v")],
        group_by=["A.k"],
    )


def _keys_of_a():
    return ProjectNode(A, [(Field("A.k"), "k")])


def distinct_plan():
    """Duplicate elimination over A: equal-start remainders released in
    the order of a content stage key."""
    return DistinctNode(A)


def difference_plan():
    """A's keys minus B's keys: the two-input bag difference."""
    return DifferenceNode(_keys_of_a(), B)


def union_plan():
    """A's keys plus B's keys: the order-restoring union."""
    return UnionNode(_keys_of_a(), B)


#: Plan groups in recording order (see the module docstring).
PLAN_GROUPS: Tuple[Dict[str, Callable[[], Any]], ...] = (
    {
        "hash-join": hash_join_plan,
        "join-chain": join_chain_plan,
        "aggregate": aggregate_plan,
        "join-aggregate": join_aggregate_plan,
    },
    {
        "nl-join": nl_join_plan,
        "grouped-aggregate": grouped_aggregate_plan,
        "distinct": distinct_plan,
        "difference": difference_plan,
        "union": union_plan,
    },
)

PLANS: Dict[str, Callable[[], Any]] = {
    name: plan for group in PLAN_GROUPS for name, plan in group.items()
}

SCHEDULERS: Dict[str, Callable[[], Any]] = {
    "global": GlobalOrderScheduler,
    "round-robin-2": lambda: RoundRobinScheduler(batch=2),
    "round-robin-4": lambda: RoundRobinScheduler(batch=4),
}

BATCH_SIZES = (1, 2, 3, 64)
SEEDS_PER_COMBINATION = 2


# ---------------------------------------------------------------------- #
# Case generation
# ---------------------------------------------------------------------- #


def _raw_stream(rng: random.Random) -> List[List[int]]:
    """``[key, value, delta]`` rows; delta 0 yields equal-start runs."""
    return [
        [rng.randint(0, 3), rng.randint(0, 8), rng.choice((0, 0, 1, 2))]
        for _ in range(rng.randint(6, 12))
    ]


def generate_cases() -> List[Dict[str, Any]]:
    """The seeded case table (inputs only, no expectations)."""
    cases = []
    combinations = [
        combination
        for group in PLAN_GROUPS
        for combination in product(
            sorted(group), sorted(SCHEDULERS), BATCH_SIZES, (False, True)
        )
    ]
    seed = 0
    for plan, scheduler, batch_size, migrate in combinations:
        for _ in range(SEEDS_PER_COMBINATION):
            rng = random.Random(seed)
            raw_a = _raw_stream(rng)
            raw_b = _raw_stream(rng)
            horizon = sum(delta for _, _, delta in raw_a)
            cases.append(
                {
                    "seed": seed,
                    "plan": plan,
                    "scheduler": scheduler,
                    "batch_size": batch_size,
                    "migrate_at": rng.randint(0, horizon) if migrate else None,
                    "raw_a": raw_a,
                    "raw_b": raw_b,
                }
            )
            seed += 1
    return cases


def make_streams(raw_a, raw_b):
    t, rows_a = 0, []
    for key, value, delta in raw_a:
        t += delta
        rows_a.append(((key, value), t))
    t, rows_b = 0, []
    for key, _, delta in raw_b:
        t += delta
        rows_b.append(((key,), t))
    return {
        "A": timestamped_stream(rows_a, name="A"),
        "B": timestamped_stream(rows_b, name="B"),
    }


# ---------------------------------------------------------------------- #
# Running and encoding
# ---------------------------------------------------------------------- #


def run_case(case: Dict[str, Any]) -> Tuple[List[StreamElement], int, Dict[str, int]]:
    """Run one case; returns ``(output, meter total, meter by category)``."""
    plan_tree = PLANS[case["plan"]]()
    sink = CollectorSink()
    executor = QueryExecutor(
        make_streams(case["raw_a"], case["raw_b"]),
        WINDOWS,
        PhysicalBuilder().build(plan_tree),
        scheduler=SCHEDULERS[case["scheduler"]](),
        batch_size=case["batch_size"],
    )
    executor.add_sink(sink)
    if case["migrate_at"] is not None:
        executor.schedule_migration(
            case["migrate_at"], PhysicalBuilder().build(plan_tree), GenMig()
        )
    executor.run()
    return sink.elements, executor.meter.total, dict(executor.meter.by_category)


def encode(value: Any) -> Any:
    """JSON-safe, type-exact encoding: Fraction → ``{"n", "d"}``."""
    if isinstance(value, Fraction):
        return {"n": value.numerator, "d": value.denominator}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in sorted(value.items())}
    return value


def expectation(
    result: Tuple[List[StreamElement], int, Dict[str, int]]
) -> Dict[str, Any]:
    output, total, by_category = result
    return {
        "output": encode([(e.payload, e.start, e.end, e.flag) for e in output]),
        "meter_total": total,
        "meter_by_category": encode(by_category),
    }


def load() -> List[Dict[str, Any]]:
    with open(FIXTURE) as handle:
        return json.load(handle)["cases"]


def record() -> None:
    cases = generate_cases()
    for case in cases:
        case["expected"] = expectation(run_case(case))
    with open(FIXTURE, "w") as handle:
        handle.write('{"cases": [\n')
        handle.write(",\n".join(json.dumps(case, separators=(",", ":")) for case in cases))
        handle.write("\n]}\n")


if __name__ == "__main__":
    record()
