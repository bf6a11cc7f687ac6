"""Benchmark of hexport: one workload, one seed, one JSON line of results.

    python3 hexbench/run.py --workload sr1_port --seed 1 --seconds 30 --trace 0

Run from the root of a hexport checkout; the program is imported from its
``src/`` directory, so no install is needed.  With ``--trace 0`` the chain
of the workload is repeated for ``--seconds`` seconds and every end-to-end
metric is the median over the repetitions.  With ``--trace 1`` the chain
runs once with spans around every call into hexport's modules; the spans go
to ``hexbench/results/`` and the per-layer metrics are printed.  Every run
checks the program's outputs.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, "_work")

MIN_ROUNDS = 3  # a median needs a few repetitions even on a short run

END_TO_END = ("wall_s", "setup_s", "port_s", "errors_s", "degrade_s", "recover_s", "flow_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sr1_port", "dem_recover_route"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--fast", action="store_true", help="toy sizes, for the benchmark's tests")
    return p.parse_args(argv)


def passes(check, *args) -> bool:
    """Run one output check; report a failure on stderr."""
    import checks

    try:
        check(*args)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def timed(chain, seconds):
    """Repeat the chain for ``seconds``; returns (correct, metrics, extra)."""
    samples = {name: [] for name in END_TO_END}
    correct = True
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        times, outputs = chain.round()
        times["setup_s"] = chain.setup_probe()
        for name, value in times.items():
            samples[name].append(value)
        correct &= passes(chain.check, outputs)
        if len(samples["wall_s"]) >= MIN_ROUNDS and time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return correct, metrics, {"rounds": len(samples["wall_s"]), "samples": samples}


def traced(chain, run_id):
    """One traced round plus its replay; returns (correct, metrics, extra)."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer(run_id)
    chain.harness = lambda: tracer.phase_of("harness")
    with tracer:
        with tracer.phase_of("chain"):
            times, outputs = chain.round()
        with tracer.phase_of("replay"):
            chain.replay(tracer.span)
    correct = passes(chain.check, outputs)
    layers = layer_metrics(tracer.spans)
    units = {k: ("s" if k.endswith("_s") else "count") for k in layers}
    units["hydroflow.capped_share"] = "1/cell-step"
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    return correct, metrics, {"traced_times": times, "spans": tracer.spans}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hexport", "__init__.py")):
        print(f"error: no hexport sources at {SRC}; run from a hexport checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hexport

    if os.path.dirname(os.path.abspath(hexport.__file__)) != os.path.join(SRC, "hexport"):
        print(f"error: imported hexport from {hexport.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    try:
        chain = workloads.Chain(workloads.get(args.workload, args.fast), args.seed, workdir)
        prep_ok = passes(chain.check_bicubic)
        if args.trace:
            correct, metrics, extra = traced(chain, run_id)
        else:
            correct, metrics, extra = timed(chain, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": bool(prep_ok and correct),
        "attempted": chain.attempted,
        "failed": chain.failed,
        "metrics": metrics,
    }
    kind = "trace" if args.trace else "run"
    with open(os.path.join(RESULTS, f"{kind}-{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"run": run_id, "workload": args.workload, "seed": args.seed,
                   "fast": args.fast, **result, **extra}, fh)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
