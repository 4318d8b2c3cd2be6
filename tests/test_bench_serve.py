"""A short run of the benchmark's `serve` workload passes its own checks.

`bench/workloads.py:run_serve` starts the HTTP service in its own process,
sends one round of its open loop (100 requests of 300 candidates, four of
them malformed) and checks every reply; this runs it untraced, so a change
that would make the benchmark's `serve` run incorrect fails here too.
"""

import json

from tests.helpers import load_bench_workloads


def test_serve_workload_passes_every_check(monkeypatch, tmp_path):
    workloads = load_bench_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)  # checkpoint, log and totals go here
    kinds = {body: kind for kind, body in workloads._malformed_bodies()}
    replies = {}
    post = workloads._post

    def recording_post(port, path, body):
        status, data = post(port, path, body)
        if body in kinds:
            replies[kinds[body]] = status, data
        return status, data

    monkeypatch.setattr(workloads, "_post", recording_post)
    result = workloads.run_serve(1, 0.3, False)
    assert result["checks"].failures == []
    assert result["failed"] == 0
    assert result["attempted"] == workloads.SERVE_ROUND
    assert sorted(replies) == sorted(workloads.MALFORMED)
    for kind, fragments in workloads.MALFORMED.items():
        status, data = replies[kind]
        error = json.loads(data)["error"]
        assert status == 400 and all(fragment in error for fragment in fragments), (kind, error)
