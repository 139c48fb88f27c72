#!/usr/bin/env python3
"""Record the benchmark's end-to-end results under a label.

Runs ``perfbench/run.py --trace 0 --seconds 28`` for every workload in
``BENCHMARK.json`` at seeds 1 and 7919 (the held-out seed), one run at a
time, and writes the last JSON line of each run to ``BENCH_<label>.json``
at the repository root:

    python3 scripts/bench_record.py --label baseline

A speed claim compares two such files recorded on the same machine.
Exits 1 if any run fails its checks.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7919)
SECONDS = 28


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args()

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs: dict[str, dict[str, dict]] = {}
    ok = True
    for workload in workloads:
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            runs.setdefault(workload, {})[str(seed)] = result
            metrics = result.get("metrics", {})
            wall, peak = (metrics.get(name, {}).get("value") for name in ("wall_s", "peak_mem_mb"))
            print(f"{workload} seed {seed}: exit {proc.returncode}, wall_s {wall}, "
                  f"peak_mem_mb {peak}", file=sys.stderr)

    record = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
