"""Benchmark for the sortgen package: rerank, serve and train workloads.

    python3 bench/run.py --workload rerank|serve|train --seed N --seconds S --trace 0|1

Run from the repository root. It imports `sortgen` from `src/`, pins BLAS and
OpenMP to one thread, and prints one JSON object as its last line of output:
whether every output check passed, the operations attempted and failed, and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json. The line before it records the environment, seeds and
details of the run; the same record, with per-sample series, is written to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sortgen benchmark")
    parser.add_argument("--workload", required=True, choices=("rerank", "serve", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sortgen" / "__init__.py").is_file():
        print(f"sortgen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads; the service process inherits it
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy as np

    import common
    import workloads

    traced = bool(args.trace)
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, traced)
    checks = result.pop("checks")
    for failure in checks.failures:
        common.log(f"check failed: {failure}")

    metrics = result.pop("metrics")
    layers = result.pop("layers", {})
    env = {"workload": args.workload, "seed": args.seed, "fixed_seeds": workloads.FIXED_SEEDS,
           "seconds": args.seconds, "trace": traced,
           "cpu_count": os.cpu_count(), "blas_threads": {k: os.environ[k] for k in THREAD_VARS},
           "python": platform.python_version(), "numpy": np.__version__}
    record = {"environment": env, "correct": checks.correct, "check_failures": checks.failures,
              "end_to_end": metrics, "per_layer": layers, **result}
    common.write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    record.pop("series", None)
    print(json.dumps(record, sort_keys=True))

    if traced:  # a layer the workload does not use reads 0
        shown = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                 for m in spec["per_layer"]}
    else:
        shown = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                 for m in spec["end_to_end"]}
    print(json.dumps({"correct": checks.correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
