"""tools/bench_pairs.py's summary of paired runs, on synthetic bench/run.py
summaries."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(latency: float, throughput: float, attempted: int = 1000,
             failed: int = 0, correct: bool = True) -> dict:
    """A `bench/run.py --trace 0` last line: the given latency and throughput,
    and 1.0 for every other end-to-end metric."""
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    values.update(latency_p50_ms=latency, throughput_per_s=throughput)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    """Pairs whose latencies are `parent` and `change`, throughput 1/latency."""
    return [{"seed": 7000 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": _summary(a, 1.0 / a, attempted=1000 + i),
             "change": _summary(b, 1.0 / b, attempted=2000 + i)}
            for i, (a, b) in enumerate(zip(parent, change))]


def test_a_gain_holds_when_nine_of_ten_pairs_win_past_the_parents_spread(bench_pairs):
    # Parent latencies 1.00..1.09 (quartiles 1.0225 and 1.0675, IQR 0.045);
    # the change is 0.1 lower in nine pairs and 0.01 higher in one, so it
    # wins 9 of 10 and its median is 0.1 lower, past the IQR. Throughput,
    # higher-is-better, wins the same pairs. The other metrics tie.
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [a - 0.1 for a in parent[:9]] + [parent[9] + 0.01]
    result = bench_pairs.summarise(SPEC, _pairs(parent, change))
    assert result["pairs"] == 10
    latency = result["metrics"]["latency_p50_ms"]
    assert latency["parent"]["median"] == pytest.approx(1.045)
    assert latency["parent"]["q1"] == pytest.approx(1.0225)
    assert latency["parent"]["q3"] == pytest.approx(1.0675)
    assert latency["parent"]["iqr"] == pytest.approx(0.045)
    assert latency["change"]["median"] == pytest.approx(0.945)
    assert (latency["wins"], latency["losses"], latency["ties"]) == (9, 1, 0)
    assert latency["gain_holds"] and not latency["past_bound"]
    throughput = result["metrics"]["throughput_per_s"]
    assert (throughput["wins"], throughput["losses"]) == (9, 1)
    assert throughput["gain_holds"]
    rss = result["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["gain_holds"], rss["past_bound"]) == (0, 10, False,
                                                                               False)
    assert result["runs"][3] == {
        "seed": 7003, "first": "change",
        "parent": {"correct": True, "attempted": 1003, "failed": 0},
        "change": {"correct": True, "attempted": 2003, "failed": 0}}


def test_no_gain_from_eight_wins_or_a_median_inside_the_spread(bench_pairs):
    parent = [1.0 + 0.01 * i for i in range(10)]
    # Eight wins of ten, by a wide margin: too few pairs.
    eight = [a - 0.1 for a in parent[:8]] + [a + 0.01 for a in parent[8:]]
    latency = bench_pairs.summarise(SPEC, _pairs(parent, eight))["metrics"]["latency_p50_ms"]
    assert latency["wins"] == 8 and not latency["gain_holds"]
    # Ten wins, but each by 0.01, less than the parent's IQR of 0.045.
    close = [a - 0.01 for a in parent]
    latency = bench_pairs.summarise(SPEC, _pairs(parent, close))["metrics"]["latency_p50_ms"]
    assert latency["wins"] == 10 and not latency["gain_holds"]


def test_a_median_worse_past_its_bound_is_flagged(bench_pairs):
    # Latency 1.3 times the parent's in every pair: past its 25% bound, and
    # throughput 1/1.3 of it, 23% lower, inside its bound.
    parent = [1.0 + 0.01 * i for i in range(10)]
    result = bench_pairs.summarise(SPEC, _pairs(parent, [1.3 * a for a in parent]))
    latency, throughput = (result["metrics"][k] for k in ("latency_p50_ms", "throughput_per_s"))
    assert latency["ratio"] == pytest.approx(1.3)
    assert latency["past_bound"] and latency["losses"] == 10 and not latency["gain_holds"]
    assert not throughput["past_bound"] and throughput["losses"] == 10


def test_one_pair_has_its_values_as_quartiles(bench_pairs):
    result = bench_pairs.summarise(SPEC, _pairs([2.0], [1.0]))
    latency = result["metrics"]["latency_p50_ms"]
    assert latency["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0,
                                 "values": [2.0]}
    assert latency["wins"] == 1 and latency["gain_holds"]


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # Parent latencies 1.0..1.9 have quartiles 1.225 and 1.675: a distance
    # of 0.45, past the 25% bound times the median 1.45 (0.3625).
    parent = [1.0 + 0.1 * i for i in range(10)]
    latency = bench_pairs.summarise(SPEC, _pairs(parent, parent))["metrics"]["latency_p50_ms"]
    assert latency["unresolved"] and not latency["past_bound"]
    # Unless every change run beats every parent run.
    faster = [a - 1.0 + 0.05 for a in parent[::-1]]  # 0.95..0.05, below 1.0
    latency = bench_pairs.summarise(SPEC, _pairs(parent, faster))["metrics"]["latency_p50_ms"]
    assert not latency["unresolved"]
    # A spread of 0.045 around 1.045 is inside the bound.
    narrow = [1.0 + 0.01 * i for i in range(10)]
    latency = bench_pairs.summarise(SPEC, _pairs(narrow, narrow))["metrics"]["latency_p50_ms"]
    assert not latency["unresolved"]


def test_all_names_every_workload_of_the_benchmark(bench_pairs):
    names = [w["name"] for w in SPEC["workloads"]]
    assert bench_pairs.workload_names(SPEC, ["all"]) == names
    assert bench_pairs.workload_names(SPEC, [names[-1], names[0], names[-1]]) == [names[-1],
                                                                              names[0]]
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        bench_pairs.workload_names(SPEC, ["nope"])
