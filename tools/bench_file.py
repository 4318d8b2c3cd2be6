"""Write one BENCH_<label>.json: the benchmark at fixed seeds plus Tier-1.

    python3 tools/bench_file.py --label pr32

Run from anywhere; it measures the checkout it sits in. For each workload in
BENCHMARK.json it runs `bench/run.py` unchanged, as a subprocess, at
SEEDS x SECONDS with tracing off and once more with tracing on (the
per-layer metrics), then the Tier-1 suite once with `-rP`, whose output
holds the test count, the wall time and the `[acceptance]` lines. The file
holds each end-to-end metric's median and per-seed values (scaled to the
host's speed, as bench/run.py reports them, and unscaled), the runs'
correctness and operation counts, the per-layer metrics (naming those that
read 0), and the environment: CPU counts, BLAS thread variables, Python and
NumPy versions and the commit.

Each new file is compared with the newest other BENCH_*.json in the same
directory: a ratio per metric, new over old, flagged where it is worse than
BENCHMARK.json's bound. The two files come from different sessions, often
on a host whose speed drifts, so the comparison is a trajectory, not a
paired measurement, and claims no gain.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (101, 102, 103)
TRACE_SEED = 101
SECONDS = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rP", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TRAJECTORY = ("trajectory: two files from different sessions, unpaired, on a host whose "
              "speed drifts; a ratio past its bound is a lead to measure in pairs, not a "
              "regression or a gain")
ZERO_NOTE = ("reads 0: the workload does not reach this layer, or no span is recorded "
             "around it")


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run: its summary (the last line of its output) and
    the unscaled figures of its record (the line before), among them the
    median time of the host-speed kernel that the scaled figures divide by."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return {"seed": seed, "summary": json.loads(lines[-1]),
            "raw": json.loads(lines[-2]).get("raw", {})}


def parse_tier1(output: str) -> dict:
    """The outcome counts, wall seconds and `[acceptance]` lines of a
    `pytest -q -rP` run's output."""
    counts, wall = {}, None
    for line in reversed(output.splitlines()):
        timed = re.search(r" in ([\d.]+)s\b", line)
        if timed and re.search(r"\d+ (passed|failed|errors?)\b", line):
            counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", line[:timed.start()])}
            wall = float(timed.group(1))
            break
    acceptance = [line.strip() for line in output.splitlines()
                  if line.strip().startswith("[acceptance]")]
    return {"counts": counts, "wall_s": wall, "acceptance": acceptance}


def run_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, env=env,
                          check=False)
    return {"exit_code": done.returncode, **parse_tier1(done.stdout)}


def environment(root: Path) -> dict:
    import numpy as np

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=False).stdout.strip()

    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
            "bench_thread_vars": "bench/run.py sets each to 1 before NumPy loads",
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git("rev-parse", "HEAD") or None,
            "uncommitted": git("status", "--porcelain").splitlines()}


def summarise(spec: dict, runs: dict, traced: dict, tier1: dict, env: dict) -> dict:
    """The BENCH file's body. runs: workload -> [run_bench results at
    trace 0]; traced: workload -> one run_bench result at trace 1."""
    workloads = {}
    for name, seeded in runs.items():
        per_seed = {str(r["seed"]): r["summary"] for r in seeded}
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["summary"]["metrics"][m["name"]]["value"] for r in seeded]
            metrics[m["name"]] = {"median": statistics.median(values), "unit": m["unit"],
                                  "per_seed": dict(zip(per_seed, values))}
        entry = {
            "correct": all(r["summary"]["correct"] for r in seeded),
            "attempted": sum(r["summary"]["attempted"] for r in seeded),
            "failed": sum(r["summary"]["failed"] for r in seeded),
            "per_seed_counts": {seed: {"attempted": s["attempted"], "failed": s["failed"],
                                       "correct": s["correct"]}
                                for seed, s in per_seed.items()},
            "end_to_end": metrics,
            "raw_per_seed": {str(r["seed"]): r["raw"] for r in seeded},
        }
        if name in traced:
            t = traced[name]["summary"]
            layers = {k: v["value"] for k, v in t["metrics"].items()}
            entry["per_layer"] = {"seed": traced[name]["seed"], "correct": t["correct"],
                                  "metrics": layers,
                                  "zero": sorted(k for k, v in layers.items() if v == 0.0),
                                  "zero_note": ZERO_NOTE}
        workloads[name] = entry
    return {"environment": env, "workloads": workloads, "tier1": tier1}


def compare(spec: dict, new: dict, old: dict) -> dict:
    """Per workload and end-to-end metric, the ratio of new's median to
    old's, flagged where the change is worse than the metric's bound."""
    rules = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for name, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(name)
        if before is None:
            continue
        rows = {}
        for metric, value in entry["end_to_end"].items():
            base = before["end_to_end"].get(metric, {}).get("median")
            if metric not in rules or not base:
                continue
            ratio = value["median"] / base
            worse = ratio - 1.0 if rules[metric]["better"] == "lower" else 1.0 - ratio
            rows[metric] = {"ratio": ratio, "new": value["median"], "old": base,
                            "bound": rules[metric]["bound"],
                            "past_bound": worse > rules[metric]["bound"]}
        out[name] = rows
    return {"kind": TRAJECTORY, "workloads": out}


def newest_other(directory: Path, label: str) -> Path | None:
    """The BENCH_*.json in `directory` other than BENCH_<label>.json with
    the latest `created` time."""
    best = None
    for path in directory.glob("BENCH_*.json"):
        if path.name == f"BENCH_{label}.json":
            continue
        created = json.loads(path.read_text(encoding="utf-8")).get("created", "")
        if best is None or created > best[0]:
            best = (created, path)
    return None if best is None else best[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    runs, traced = {}, {}
    for name in names:
        runs[name] = []
        for seed in SEEDS:
            runs[name].append(run_bench(ROOT, name, seed, SECONDS, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[name][-1]['summary'])}", flush=True)
        traced[name] = run_bench(ROOT, name, TRACE_SEED, SECONDS, 1)
        print(f"{name} traced: {json.dumps(traced[name]['summary'])}", flush=True)
    tier1 = run_tier1(ROOT)
    print(f"tier-1: {tier1['counts']} in {tier1['wall_s']} s", flush=True)

    doc = {"label": args.label,
           "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
           "runs": {"seconds": SECONDS, "seeds": list(SEEDS), "trace_seed": TRACE_SEED},
           **summarise(spec, runs, traced, tier1, environment(ROOT))}
    other = newest_other(ROOT, args.label)
    if other is not None:
        doc["comparison"] = {"against": other.name,
                             **compare(spec, doc, json.loads(other.read_text(encoding="utf-8")))}
        print(json.dumps(doc["comparison"], indent=1, sort_keys=True))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
