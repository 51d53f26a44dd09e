#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH_<n>.json record.

    python3 perfbench/record.py --out perfbench/BENCH_0.json

It runs every workload in BENCHMARK.json with each of SEEDS.  Each run is
the command in BENCHMARK.json with ``--seconds run_seconds``, started from
the checkout root exactly as a single benchmark run is.  For
every end-to-end metric the record holds the per-seed values, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound.
One traced run per workload (the first seed) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import environment  # noqa: E402


# the same ten seeds in every record, so records compare run for run
SEEDS = list(range(1, 11))


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = took
    print(f"{workload} seed {seed} trace {trace}: {took:.1f} s, "
          f"correct {result['correct']}, " + ", ".join(
              f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
              if trace == 0), flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"benchmark": bench, "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        runs = [_run(bench, name, seed, 0) for seed in SEEDS]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            stats = spread(values)
            metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                                  "values": values, **stats}
            print(f"  {m['name']:<12} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f} (bound {m['bound']})")
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "run_s": [r["run_s"] for r in runs], "end_to_end": metrics}
        traced = _run(bench, name, SEEDS[0], 1)
        entry["traced_seed"] = SEEDS[0]
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        ok = ok and entry["correct"] and traced["correct"]
        record["workloads"][name] = entry
    record["env"] = environment()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
