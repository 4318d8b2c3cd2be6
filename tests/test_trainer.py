import dataclasses

import numpy as np
import pytest

from sortgen import model as sortmodel
from sortgen import cli, nn, simulator, trainer
from sortgen.core import ConfigError, EngineConfig, to_dict
from sortgen.simulator import SimConfig

ENGINE = EngineConfig(l_s=10, l_o=5, max_count=5, d_model=16, n_heads=2, n_layers=1)
SIM = SimConfig(n_items=40, sessions=300, seed=21)


@pytest.fixture(scope="module")
def dataset():
    return simulator.build_dataset(ENGINE, SIM)


def test_zero_lr_leaves_params_and_loss(dataset):
    params = sortmodel.init_params(ENGINE, seed=1)
    before = {n: p.value.copy() for n, p in params.items()}
    report = trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=2, lr=0.0))
    for name, p in params.items():
        assert (p.value == before[name]).all()
    assert abs(report.train_losses[0] - report.train_losses[1]) < 1e-9


def test_training_deterministic(dataset):
    reports = []
    for _ in range(2):
        params = sortmodel.init_params(ENGINE, seed=2)
        reports.append(trainer.train(dataset, params, ENGINE,
                                     trainer.TrainConfig(epochs=2)))
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].eval_losses == reports[1].eval_losses


def test_training_reduces_loss(dataset):
    params = sortmodel.init_params(ENGINE, seed=3)
    report = trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=4))
    assert report.train_losses[-1] < report.train_losses[0]


def test_gradient_flow(dataset):
    params = sortmodel.init_params(ENGINE, seed=4)
    arrays = trainer._to_arrays(dataset.samples[:32])
    nn.zero_grads(params)
    loss = trainer._batch_loss(ENGINE, params, arrays)
    nn.backward(loss)
    nonzero = sum(1 for p in params.values()
                  if p.grad is not None and np.linalg.norm(p.grad) > 0)
    assert nonzero / len(params) >= 0.99


def test_loss_mode_switch_changes_only_loss(dataset):
    params = sortmodel.init_params(ENGINE, seed=5)
    arrays = trainer._to_arrays(dataset.samples[:8])
    ordered = trainer._batch_loss(ENGINE, params, arrays)
    pw_engine = dataclasses.replace(ENGINE, loss_mode="pointwise")
    pointwise = trainer._batch_loss(pw_engine, params, arrays)
    assert float(ordered.value) != float(pointwise.value)
    # forward outputs themselves are identical across modes
    out_a = sortmodel.forward(ENGINE, params, arrays.emb, arrays.user, arrays.score)
    out_b = sortmodel.forward(pw_engine, params, arrays.emb, arrays.user, arrays.score)
    assert (out_a.click.value == out_b.click.value).all()


def test_checkpoint_written_at_best_eval(dataset, tmp_path):
    params = sortmodel.init_params(ENGINE, seed=6)
    ckpt = tmp_path / "best.ckpt"
    trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=2),
                  ckpt_path=ckpt)
    loaded, cfg = sortmodel.load_checkpoint(ckpt)
    assert cfg == ENGINE
    assert set(loaded) == set(params)


def test_eval_split_stable(dataset):
    a = trainer._session_hash_split(dataset.samples, 0.1)
    b = trainer._session_hash_split(dataset.samples, 0.1)
    assert a == b
    assert 0 < len(a[1]) < len(dataset.samples)


def test_empty_dataset_rejected():
    empty = simulator.Dataset([], [], to_dict(ENGINE), to_dict(SIM))
    with pytest.raises(ConfigError):
        trainer.train(empty, sortmodel.init_params(ENGINE, seed=0), ENGINE,
                      trainer.TrainConfig(epochs=1))


def _one_split_only(dataset, split):
    """Two sessions that the hash split at eval_fraction 0.1 both sends away
    from `split`, so that split is empty."""
    train_idx, eval_idx = trainer._session_hash_split(dataset.samples, 0.1)
    keep = (eval_idx if split == "training" else train_idx)[:2]
    return dataclasses.replace(dataset, samples=[dataset.samples[i] for i in keep])


@pytest.mark.parametrize("split", ["training", "evaluation"])
def test_empty_split_rejected(dataset, split):
    with pytest.raises(ConfigError, match=f"empty {split} split: 2 sessions"):
        trainer.train(_one_split_only(dataset, split), sortmodel.init_params(ENGINE, seed=0),
                      ENGINE, trainer.TrainConfig(epochs=1))


def test_train_command_on_an_empty_split_is_a_config_error(dataset, tmp_path, capsys):
    data = tmp_path / "two.jsonl"
    simulator.write_dataset(_one_split_only(dataset, "evaluation"), data)
    rc = cli.main(["train", "--data", str(data), "--ckpt", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "config error: empty evaluation split" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_sessions_whose_items_and_labels_differ_in_length_rejected(dataset):
    # 6 + 4 items over two 5-position label rows: the item count matches the
    # label count, so only a per-session check can tell.
    a, b = dataset.samples[:2]
    ragged = [dataclasses.replace(a, items=a.items + b.items[:1]),
              dataclasses.replace(b, items=b.items[1:])]
    with pytest.raises(ConfigError, match="differ in length"):
        trainer._to_arrays(ragged)


def test_evaluate_model_perfect_oracle_zero_gap(monkeypatch):
    # Inject survival predictions that exactly match empirical cumulative
    # counts; the calibration gap must then be zero.
    samples = simulator.build_dataset(ENGINE, dataclasses.replace(SIM, sessions=64)).samples
    arrays = trainer._to_arrays(samples)
    from sortgen.model import ModelOutput, valid_mask
    from sortgen.nn import Var

    cursor = {"i": 0}

    def fake_forward(config, params, emb, user, score):
        n, l = emb.shape[0], emb.shape[1]
        start = cursor["i"]
        cursor["i"] += n  # evaluate_model slices batches sequentially
        thresh = np.arange(1, config.max_count + 1)
        click = (arrays.cum_clicks[start:start + n, :, None] >= thresh).astype(float)
        pay = (arrays.cum_pays[start:start + n, :, None] >= thresh).astype(float)
        return ModelOutput(Var(click), Var(pay), Var((click * 2 - 1) * 30.0),
                           Var((pay * 2 - 1) * 30.0), valid_mask(l, config.max_count))

    monkeypatch.setattr(trainer.sortmodel, "forward", fake_forward)
    monkeypatch.setattr(trainer, "_batch_loss",
                        lambda config, params, batch: Var(np.array(0.0)))
    metrics = trainer.evaluate_model(ENGINE, {}, arrays)
    assert metrics["calib_gap"] < 1e-12


def test_nonfinite_loss_aborts_with_diagnostics(dataset):
    params = sortmodel.init_params(ENGINE, seed=7)
    params["proj.W"].value[...] = np.inf
    # The inf weights make NaNs in the first batch's forward, which raises
    # with the batch and the parameter norm named.
    with (pytest.warns(RuntimeWarning),
          pytest.raises(FloatingPointError, match=r"epoch 0, batch 0; total parameter norm")):
        trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=1))


def test_metrics_file_format(dataset, tmp_path):
    params = sortmodel.init_params(ENGINE, seed=8)
    report = trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=2))
    path = tmp_path / "metrics.tsv"
    trainer.write_metrics(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["epoch", "train_loss", "eval_loss",
                                    "calib_gap", "seconds"]
    assert len(lines) == 3


def test_metrics_file_has_each_epochs_own_seconds(dataset, tmp_path):
    params = sortmodel.init_params(ENGINE, seed=9)
    report = trainer.train(dataset, params, ENGINE, trainer.TrainConfig(epochs=3))
    assert len(report.epoch_seconds) == 3
    assert all(s > 0.0 for s in report.epoch_seconds)
    assert sum(report.epoch_seconds) <= report.seconds
    path = tmp_path / "metrics.tsv"
    trainer.write_metrics(report, path)
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    assert [float(r[4]) for r in rows] == [round(s, 2) for s in report.epoch_seconds]


def test_train_on_loaded_checkpoint_still_learns(dataset, tmp_path):
    ckpt = tmp_path / "start.ckpt"
    sortmodel.save_checkpoint(ckpt, sortmodel.init_params(ENGINE, seed=10), ENGINE)
    params, engine = sortmodel.load_checkpoint(ckpt)
    assert not any(p.requires_grad for p in params.values())
    report = trainer.train(dataset, params, engine, trainer.TrainConfig(epochs=3))
    assert all(p.requires_grad for p in params.values())
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.eval_losses[-1] < report.eval_losses[0]


def test_evaluate_model_records_no_tape(dataset, monkeypatch):
    params = sortmodel.init_params(ENGINE, seed=11)
    arrays = trainer._to_arrays(dataset.samples[:40])
    outputs = []
    forward = sortmodel.forward

    def spy(*args):
        outputs.append(forward(*args))
        return outputs[-1]

    monkeypatch.setattr(trainer.sortmodel, "forward", spy)
    trainer.evaluate_model(ENGINE, params, arrays, batch_size=16)
    assert len(outputs) == 3  # one forward per eval batch
    assert not any(out.click.requires_grad for out in outputs)
    assert all(p.requires_grad for p in params.values())
