"""Service-level benchmark of the continuous-query engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join_drift --seed 1 --seconds 10 --trace 0

Prints one line per metric (name, value, unit), then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exits non-zero when any output check or guard
fails, and before measuring anything when the program's source is missing.
See NOTES.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source is missing under {source}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    from bench import run
    from checks import BenchmarkError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {workload.name}: check failed: {exc}", file=sys.stderr)
        return 1
    figures = {**result.end_to_end, **result.per_layer}
    for note in result.notes:
        print(f"# {workload.name}: {note}")
    for name, value in figures.items():
        print(f"{workload.name} {name} = {value:.6g} {units.get(name, '')}")
    metrics = {}
    if result.correct:
        metrics = {
            m["name"]: {"value": float(figures[m["name"]]), "unit": m["unit"]} for m in wanted
        }
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
