"""Golden-corpus replay of the stateful plan shapes.

The hash join keeps one state layout (columnar) and probes through
compiled kernels plus one element path; the ungrouped aggregate folds
through a compiled kernel; every other stateful operator consumes a run
through the element protocol alone.  Their byte-identity oracle is the
golden corpus (:mod:`golden_corpus`): the hash-join and aggregate shapes
were recorded with the element-wise hash-join layout before it was
deleted, the nested-loops join, grouped aggregate, distinct, difference
and union shapes before stateful operators stopped splitting runs into a
first element and a deferred tail.  Every case must reproduce the
recorded output stream — same elements, same delivery order, same flags,
exact ``Fraction`` endpoints — and the recorded cost-meter total and
per-category charges.  The corpus spans nine plan shapes × three
schedulers × batch sizes {1, 2, 3, 64}, with and without a GenMig
migration whose drain/seed moves the operators' state.

Independently of any recording, every replayed output is checked
against the relational oracle of Definition 1 (``RelationalReference``)
at the critical instants of its inputs.

The whole suite runs under the stream-invariant sanitizer (see
``conftest.py``), so an ordering, watermark or emission violation fails
loudly rather than by diff.
"""

from itertools import product

from helpers import RelationalReference, probe_instants, windowed

from .golden_corpus import (
    BATCH_SIZES,
    PLANS,
    SCHEDULERS,
    WINDOWS,
    expectation,
    load,
    make_streams,
    run_case,
)

CASES = load()


def case_id(case):
    return (
        f"seed={case['seed']} {case['plan']} {case['scheduler']} "
        f"batch={case['batch_size']} migrate_at={case['migrate_at']}"
    )


def replay(cases):
    """Run ``cases``; returns the ids whose replay differs from the record."""
    return [
        case_id(case)
        for case in cases
        if expectation(run_case(case)) != case["expected"]
    ]


def test_corpus_covers_every_combination_and_delivers_results():
    combinations = {
        (c["plan"], c["scheduler"], c["batch_size"], c["migrate_at"] is not None)
        for c in CASES
    }
    assert combinations == set(
        product(PLANS, SCHEDULERS, BATCH_SIZES, (False, True))
    )
    # An oracle comparison of two empty outputs proves nothing.
    delivering = sum(1 for c in CASES if c["expected"]["output"])
    assert delivering >= 0.9 * len(CASES)


def test_columnar_matches_element_wise():
    """Unmigrated runs reproduce the element-wise recording byte for byte."""
    cases = [c for c in CASES if c["migrate_at"] is None]
    assert cases
    assert replay(cases) == []


def test_migration_onto_columnar_box_matches_element_wise():
    """GenMig between two columnar boxes reproduces the recording of the
    same migration between element-wise boxes: the drain/seed of the
    join's struct-of-arrays state is as invisible as the old layout's."""
    cases = [c for c in CASES if c["migrate_at"] is not None]
    assert cases
    assert replay(cases) == []


def test_replay_matches_relational_reference():
    diverging = []
    for case in CASES:
        streams = make_streams(case["raw_a"], case["raw_b"])
        windowed_streams = {
            name: windowed(stream, WINDOWS[name]) for name, stream in streams.items()
        }
        reference = RelationalReference(windowed_streams)
        output, _, _ = run_case(case)
        instants = probe_instants(*windowed_streams.values())
        if reference.check(PLANS[case["plan"]](), output, instants) is not None:
            diverging.append(case_id(case))
    assert diverging == []
