"""Paired benchmark runs of two checkouts, and the gain rule applied to them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload rerank \
        --pairs 10 --seconds 30 --seed0 7001

`--workload` may be given more than once, or as `all`, every workload of
BENCHMARK.json. Each pair runs `bench/run.py` unchanged in both checkouts,
as a subprocess, for each named workload, with tracing off and one seed for
both sides (seed0 + pair index); which side runs first alternates from pair
to pair, the parent first in pair 0. The summary gives, per workload, for
each side and each end-to-end metric of BENCHMARK.json, the median and
quartiles over its runs; the pairs the change wins, loses and ties by the
metric's `better` direction; each run's `correct`, `attempted` and `failed`;
and whether the gain rule holds: the change wins at least nine tenths of the
pairs, ties counting for neither, and its median is better than the
parent's by more than the distance between the parent's quartiles. It also
flags a median worse than the parent's by more than the metric's bound, and
marks a metric `unresolved` when the parent's quartile distance is wider
than the bound times the parent's median, unless every change run beats
every parent run: the runs then spread too widely to tell a move within the
bound from none. The BENCHMARK.json read is the change's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and their distance."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarise(spec: dict, pairs: list[dict]) -> dict:
    """pairs: per pair, {"seed", "first" (the side run first), "parent" and
    "change" (each side's `bench/run.py` summary line)}."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: spread([p[side]["metrics"][name]["value"] for p in pairs])
                 for side in SIDES}
        wins = losses = 0
        for p in pairs:
            a, b = (p[side]["metrics"][name]["value"] for side in SIDES)
            if a != b:
                if (b < a) == lower:
                    wins += 1
                else:
                    losses += 1
        base, new = sides["parent"]["median"], sides["change"]["median"]
        gain = base - new if lower else new - base
        ratio = new / base if base else None
        worse = None if ratio is None else (ratio - 1.0 if lower else 1.0 - ratio)
        parent, change = sides["parent"]["values"], sides["change"]["values"]
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], **sides,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "ratio": ratio, "past_bound": worse is not None and worse > m["bound"],
            "unresolved": sides["parent"]["iqr"] > m["bound"] * abs(base) and not beats_all,
            "gain_holds": 10 * wins >= 9 * len(pairs) and gain > sides["parent"]["iqr"]}
    runs = [{"seed": p["seed"], "first": p["first"],
             **{side: {k: p[side][k] for k in ("correct", "attempted", "failed")}
                for side in SIDES}}
            for p in pairs]
    return {"pairs": len(pairs), "runs": runs, "metrics": metrics}


def workload_names(spec: dict, given: list[str]) -> list[str]:
    """The workloads that `--workload` names, in the order given; `all` is
    every workload of BENCHMARK.json. A ValueError names one it lacks."""
    known = [w["name"] for w in spec["workloads"]]
    names = known if "all" in given else list(dict.fromkeys(given))
    for name in names:
        if name not in known:
            raise ValueError(f"unknown workload {name!r}; BENCHMARK.json has {known}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json, or all; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    from bench_file import run_bench  # this script's directory is on sys.path

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads = workload_names(spec, args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {workload: [] for workload in workloads}
    for i in range(args.pairs):
        seed, order = args.seed0 + i, SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(roots[side], workload, seed, args.seconds, 0)["summary"]
            pairs[workload].append(pair)
            print(json.dumps({"workload": workload, "pair": i, "seed": seed, "first": order[0],
                              **{side: {"correct": pair[side]["correct"],
                                        "attempted": pair[side]["attempted"],
                                        "failed": pair[side]["failed"],
                                        **{k: v["value"]
                                           for k, v in pair[side]["metrics"].items()}}
                                 for side in SIDES}}), flush=True)
    print(json.dumps({"seconds": args.seconds,
                      "workloads": {w: summarise(spec, pairs[w]) for w in workloads}},
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
