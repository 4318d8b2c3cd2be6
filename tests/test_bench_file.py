"""tools/bench_file.py's summary and comparison, on synthetic bench/run.py
summaries."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(scale: float, attempted: int, failed: int = 0, correct: bool = True) -> dict:
    """A `bench/run.py --trace 0` last line whose metrics are `scale` times one."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": scale, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


def _layers(values: dict) -> dict:
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}


def _body(bench_file, scales: list[float], env: dict | None = None) -> dict:
    runs = {"rerank": [{"seed": 101 + i, "summary": _summary(s, 1000 + i),
                        "raw": {"kernel_ms_median": 5.0 + i}}
                       for i, s in enumerate(scales)]}
    traced = {"rerank": {"seed": 101, "summary": _layers({"model.forward_ms": 0.0,
                                                          "generation.select_ms": 0.7})}}
    return bench_file.summarise(SPEC, runs, traced, {"counts": {"passed": 3}}, env or {})


def test_summary_holds_medians_per_seed_values_counts_and_zero_layers(bench_file):
    body = _body(bench_file, [3.0, 1.0, 2.0])
    rerank = body["workloads"]["rerank"]
    latency = rerank["end_to_end"]["latency_p50_ms"]
    assert latency == {"median": 2.0, "unit": "ms",
                       "per_seed": {"101": 3.0, "102": 1.0, "103": 2.0}}
    assert (rerank["correct"], rerank["attempted"], rerank["failed"]) == (True, 3003, 0)
    assert rerank["per_seed_counts"]["102"] == {"attempted": 1001, "failed": 0,
                                                "correct": True}
    assert rerank["raw_per_seed"]["103"] == {"kernel_ms_median": 7.0}
    layers = rerank["per_layer"]
    assert layers["metrics"] == {"model.forward_ms": 0.0, "generation.select_ms": 0.7}
    assert layers["zero"] == ["model.forward_ms"]
    assert layers["zero_note"].startswith("reads 0")


def test_summary_is_incorrect_when_any_run_is(bench_file):
    runs = {"serve": [{"seed": 1, "summary": _summary(1.0, 400), "raw": {}},
                      {"seed": 2, "summary": _summary(1.0, 400, failed=2, correct=False),
                       "raw": {}}]}
    serve = bench_file.summarise(SPEC, runs, {}, {}, {})["workloads"]["serve"]
    assert (serve["correct"], serve["attempted"], serve["failed"]) == (False, 800, 2)
    assert "per_layer" not in serve


def test_comparison_flags_only_metrics_worse_past_their_bound(bench_file):
    # Every new median is 1.2 times the old: a 20% rise is past the 5% bound
    # of peak RSS and the 3% of eval loss but inside the 25% of latency, and
    # for throughput (higher is better) a rise is no regression.
    old, new = _body(bench_file, [1.0, 1.0, 1.0]), _body(bench_file, [1.2, 1.2, 1.2])
    result = bench_file.compare(SPEC, new, old)
    assert result["kind"].startswith("trajectory")
    rows = result["workloads"]["rerank"]
    assert set(rows) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(row["ratio"] == pytest.approx(1.2) for row in rows.values())
    flagged = {name for name, row in rows.items() if row["past_bound"]}
    assert flagged == {"peak_rss_mb", "eval_loss"}
    # The other way round, throughput falls 16.7%, inside its 25% bound,
    # and every other metric improves.
    back = bench_file.compare(SPEC, old, new)["workloads"]["rerank"]
    assert not any(row["past_bound"] for row in back.values())
    assert bench_file.compare(SPEC, new, {"workloads": {}})["workloads"] == {}


def test_comparison_of_one_commit_flags_noise_past_a_bound_either_way(bench_file):
    # Two runs of one commit: every metric equal except rerank's peak RSS at
    # 0.89 times, an 11% fall. Lower is better, so it is no regression, but
    # it is past the metric's 5% bound, so the runs spread wider than the
    # bound can resolve, and only that metric is flagged.
    env = {"commit": "a" * 40}
    old = _body(bench_file, [1.0, 1.0, 1.0], env)
    new = _body(bench_file, [1.0, 1.0, 1.0], env)
    new["workloads"]["rerank"]["end_to_end"]["peak_rss_mb"]["median"] = 0.89
    result = bench_file.compare(SPEC, new, old)
    assert result["same_commit"] is True
    rows = result["workloads"]["rerank"]
    assert rows["peak_rss_mb"]["ratio"] == pytest.approx(0.89)
    assert not any(row["past_bound"] for row in rows.values())
    assert {name for name, row in rows.items() if row["noise_past_bound"]} == {"peak_rss_mb"}
    # Files of two commits, or of unknown ones, are not same-commit.
    other = _body(bench_file, [1.0, 1.0, 1.0], {"commit": "b" * 40})
    for a, b in ((new, other), (_body(bench_file, [1.0] * 3), _body(bench_file, [1.0] * 3))):
        result = bench_file.compare(SPEC, a, b)
        assert result["same_commit"] is False
        assert not any("noise_past_bound" in row for row in result["workloads"]["rerank"].values())


def test_newest_other_file_is_read_from_its_created_time(bench_file, tmp_path):
    for label, created in (("a", "2026-01-02T00:00:00+00:00"),
                           ("b", "2026-01-01T00:00:00+00:00"),
                           ("new", "2026-01-03T00:00:00+00:00")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps({"created": created}))
    assert bench_file.newest_other(tmp_path, "new").name == "BENCH_a.json"
    assert bench_file.newest_other(tmp_path / "missing", "new") is None


def test_tier1_output_gives_counts_wall_time_and_acceptance_lines(bench_file):
    out = ("....\n[acceptance] criterion 1: PASS (ok)\nnoise\n"
           "  [acceptance] criterion 2: PASS (ok)\n"
           "==== 1 failed, 667 passed, 2 warnings in 90.12s (0:01:30) ====\n")
    assert bench_file.parse_tier1(out) == {
        "counts": {"failed": 1, "passed": 667, "warnings": 2}, "wall_s": 90.12,
        "acceptance": ["[acceptance] criterion 1: PASS (ok)",
                       "[acceptance] criterion 2: PASS (ok)"]}
