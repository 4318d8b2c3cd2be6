"""A short run of the benchmark's `train` workload passes its own checks.

`bench/workloads.py:run_train` trains from one init per round and checks
that every round reaches the same best eval loss, that the reloaded
checkpoint gives that loss, and that the benchmark's reference forward on
the checkpoint matches `model.forward` within 1e-9; this runs it for 0.3 s,
untraced and traced, so a trainer change that would make the benchmark's
`train` run incorrect fails here too.
"""

import pytest

from tests.helpers import load_bench_workloads


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_train_workload_passes_every_check(monkeypatch, tmp_path, traced):
    workloads = load_bench_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)  # the checkpoint goes here
    result = workloads.run_train(1, 0.3, traced)
    assert result["checks"].failures == []
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"]["eval_loss"] < result["untrained_eval_loss"]
    assert ("layers" in result) == traced
    if traced:
        assert result["layers"]["model.save_checkpoint_calls"] == 1.0 / workloads.TRAIN_EPOCHS
    assert list(tmp_path.iterdir()) == [tmp_path / "train.ckpt"]
