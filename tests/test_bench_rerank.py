"""A short run of the benchmark's `rerank` workload passes its own checks.

`bench/workloads.py:run_rerank` replays sortgen's replies through the
benchmark's reference re-ranker and checks every reply's shape; this runs it
for 0.3 s, untraced and traced, so a change that would make the benchmark's
`rerank` run incorrect fails here too.
"""

import pytest

from tests.helpers import load_bench_workloads


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_rerank_workload_passes_every_check(monkeypatch, tmp_path, traced):
    workloads = load_bench_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)  # the served checkpoint goes here
    result = workloads.run_rerank(1, 0.3, traced)
    assert result["checks"].failures == []
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.RERANK_REQUESTS
    assert ("layers" in result) == traced
    assert list(tmp_path.iterdir()) == [tmp_path / "rerank.ckpt"]
