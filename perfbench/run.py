#!/usr/bin/env python3
"""offloadsim benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload stress_compare --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (host time untraced and
normalised to the host's speed, plus the model's own outputs); ``--trace 1`` prints the per-layer metrics
of a traced run and writes its spans under ``perfbench/out/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every run passed its checks, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "offloadsim" / "__init__.py").is_file():
        print(f"perfbench: offloadsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            spans = OUT / f"spans-{args.workload}.tsv.gz"
            outcome = bench.measure_layers(inputs, args.seconds, spans)
            units = tracing.PER_LAYER_UNITS
        else:
            outcome = bench.measure_end_to_end(inputs, args.seconds)
            units = bench.END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"simulation runs: {outcome.attempted} attempted, {outcome.failed} failed")
    print(f"output digest: sha256:{outcome.digest}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    for name, value in outcome.metrics.items():
        print(f"  {name:<38} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
