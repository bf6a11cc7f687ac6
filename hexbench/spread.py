"""Run a workload on several seeds and report each metric's spread.

    python3 hexbench/spread.py --workload sr1_port --seeds 1-10 [--out FILE]

Runs ``hexbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the quartile distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out", help="append every run's result line to this file")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values, shares = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        line = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        result = json.loads(line)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "elapsed_s": elapsed, **result}) + "\n")
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} elapsed={elapsed:.1f}s", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"failed shares: {sorted(set(shares))}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {(q3 - q1) / med:6.3f}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
