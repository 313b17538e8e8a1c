#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads oracle,family --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median and the quartiles of the
per-seed values (``statistics.quantiles(values, n=4)``) and the distance
between the quartiles as a share of the median. ``--out`` writes the same
summary, with the per-seed values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} wall {wall:.1f} s " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0,
                           "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload} {name}: median {med:.5g} quartiles "
                  f"[{q1:.5g}, {q3:.5g}] spread {stats[name]['spread']:.4f}")
        walls = [r["wall_s"] for r in runs]
        print(f"  {workload} wall: mean {statistics.mean(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
        summary[workload] = {"metrics": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
