"""Mini-batch Adam training of the value model on simulated impressions.

One training tape is alive at a time: `train` drops each step's loss, and
with it the step's tape, before the next forward, and holds none while it
evaluates or writes the checkpoint. The steps' fused nodes take their
arrays from one `nn.Workspace` per epoch, so a step does not allocate, free
and fault in its tape again; the workspace is dropped before the epoch's
evaluation, whose forward (the tape forward over frozen copies of the
parameters, which records no tape) allocates as it goes.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sortgen import model as sortmodel
from sortgen import nn, values
from sortgen.core import ConfigError, EngineConfig, check_field_types
from sortgen.simulator import Dataset


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 16
    lr: float = 1e-3
    eval_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, "train.{}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError(f"train.eval_fraction must be in (0,1), got {self.eval_fraction!r}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size!r}")
        if self.epochs < 1:
            raise ConfigError(f"train.epochs must be >= 1, got {self.epochs!r}")
        # lr 0 stays valid: a run that evaluates without training.
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"train.lr must be finite and >= 0, got {self.lr!r}")


@dataclass
class TrainReport:
    loss_mode: str
    train_losses: list[float] = field(default_factory=list)
    eval_losses: list[float] = field(default_factory=list)
    calib_gaps: list[float] = field(default_factory=list)
    # Per epoch: |expected - empirical| cumulative counts at each prefix length, [l] each.
    calib_click: list[np.ndarray] = field(default_factory=list)
    calib_pay: list[np.ndarray] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)  # mean global gradient L2 norm
    epoch_seconds: list[float] = field(default_factory=list)  # wall time of each epoch
    seconds: float = 0.0  # total wall time


@dataclass
class _Arrays:
    emb: np.ndarray       # [N, l, d_emb]
    score: np.ndarray     # [N, l, 2]
    user: np.ndarray      # [N, d_user]
    clicks: np.ndarray    # [N, l]
    pays: np.ndarray      # [N, l]
    cum_clicks: np.ndarray
    cum_pays: np.ndarray

    def take(self, idx) -> "_Arrays":
        return _Arrays(self.emb[idx], self.score[idx], self.user[idx],
                       self.clicks[idx], self.pays[idx],
                       self.cum_clicks[idx], self.cum_pays[idx])

    def __len__(self) -> int:
        return self.emb.shape[0]


def _to_arrays(dataset: Dataset, idx) -> _Arrays:
    """The sessions `idx` of `dataset`, gathered from its arrays."""
    rows, clicks, pays = dataset.rows[idx], dataset.clicks[idx], dataset.pays[idx]
    return _Arrays(dataset.features.emb[rows], dataset.features.score[rows],
                   dataset.users[idx], clicks, pays,
                   np.cumsum(clicks, axis=1), np.cumsum(pays, axis=1))


def _session_hash_split(users: np.ndarray, eval_fraction: float
                        ) -> tuple[list[int], list[int]]:
    """Stable per-session split keyed on the bytes of each user feature row."""
    train_idx, eval_idx = [], []
    cut = int(eval_fraction * 1000)
    for i, user in enumerate(users):
        digest = hashlib.sha256(user.tobytes()).digest()
        bucket = int.from_bytes(digest[:4], "big") % 1000
        (eval_idx if bucket < cut else train_idx).append(i)
    return train_idx, eval_idx


def _output_loss(config: EngineConfig, out: sortmodel.ModelOutput, batch: _Arrays,
                 workspace: nn.Workspace | None = None) -> nn.Var:
    ws = nn.NEW if workspace is None else workspace
    if config.loss_mode == "pointwise":
        return values.pointwise_loss(out, batch.clicks, batch.pays, ws)
    return values.ordered_regression_loss(out, batch.cum_clicks, batch.cum_pays, ws)


def _batch_loss(config: EngineConfig, params: dict, batch: _Arrays,
                workspace: nn.Workspace | None = None) -> nn.Var:
    out = sortmodel.forward(config, params, batch.emb, batch.user, batch.score,
                            workspace=workspace)
    return _output_loss(config, out, batch, workspace)


# Sessions per evaluation forward.
EVAL_BATCH = 256


def evaluate_model(config: EngineConfig, params: dict, arrays: _Arrays) -> dict:
    """Eval loss plus per-position calibration of expected vs empirical counts.

    One forward per batch of EVAL_BATCH sessions over constant views of the
    parameters, so evaluation records no tape.
    """
    if len(arrays) == 0:
        raise ConfigError("empty evaluation split")
    frozen = {name: nn.Var(p.value, requires_grad=False) for name, p in params.items()}
    total, n = 0.0, 0
    pred_click = np.zeros(arrays.emb.shape[1])
    pred_pay = np.zeros(arrays.emb.shape[1])
    for start in range(0, len(arrays), EVAL_BATCH):
        batch = arrays.take(slice(start, start + EVAL_BATCH))
        out = sortmodel.forward(config, frozen, batch.emb, batch.user, batch.score)
        total += float(_output_loss(config, out, batch).value) * len(batch)
        pred_click += values.expected_counts_batch(out.click.value).sum(axis=0)
        pred_pay += values.expected_counts_batch(out.pay.value).sum(axis=0)
        n += len(batch)
    emp_click = arrays.cum_clicks.mean(axis=0)
    emp_pay = arrays.cum_pays.mean(axis=0)
    calib_click = np.abs(pred_click / n - emp_click)
    calib_pay = np.abs(pred_pay / n - emp_pay)
    return {
        "eval_loss": total / n,
        "calib_click": calib_click,
        "calib_pay": calib_pay,
        "calib_gap": float((calib_click.mean() + calib_pay.mean()) / 2.0),
    }


def train(dataset: Dataset, params: dict, engine: EngineConfig, tconf: TrainConfig,
          ckpt_path: str | Path | None = None) -> TrainReport:
    """Adam over the configured loss; checkpoints the epoch of best eval loss.

    Every parameter in `params` is trained, so each is marked requires_grad,
    and its array becomes a view of the optimiser's flat buffer
    (`nn.adam_init`), updated in place. With `ckpt_path`, the best epoch's
    parameters are kept as one flat copy of that buffer, and written once:
    after the last epoch, or when training raises after an epoch that
    improved the eval loss.
    """
    if not len(dataset):
        raise ConfigError("empty dataset")
    for p in params.values():
        p.requires_grad = True
    train_idx, eval_idx = _session_hash_split(dataset.users, tconf.eval_fraction)
    for name, idx in (("training", train_idx), ("evaluation", eval_idx)):
        if not idx:
            raise ConfigError(f"empty {name} split: {len(dataset)} sessions at "
                              f"eval_fraction {tconf.eval_fraction}")
    if ckpt_path is not None and not Path(ckpt_path).parent.is_dir():
        # Checked now, since the one write comes after the last epoch.
        raise ConfigError(f"checkpoint directory {Path(ckpt_path).parent} does not exist")
    train_arr = _to_arrays(dataset, train_idx)
    eval_arr = _to_arrays(dataset, eval_idx)

    state = nn.adam_init(params, lr=tconf.lr)
    best = None if ckpt_path is None else np.empty_like(state.values)
    rng = np.random.default_rng(tconf.seed)
    report = TrainReport(loss_mode=engine.loss_mode)
    best_eval = np.inf
    start = time.perf_counter()

    try:
        for epoch in range(tconf.epochs):
            epoch_start = time.perf_counter()
            order = rng.permutation(len(train_arr))
            epoch_loss, seen, grad_norms = 0.0, 0, []
            workspace = nn.Workspace()
            for bstart in range(0, len(order), tconf.batch_size):
                batch = train_arr.take(order[bstart:bstart + tconf.batch_size])
                nn.zero_grads(params)
                try:
                    loss = _batch_loss(engine, params, batch, workspace=workspace)
                    fault = None if np.isfinite(loss.value) else "non-finite loss"
                except FloatingPointError as exc:  # the forward's non-finite activations
                    fault = str(exc)
                if fault:
                    raise FloatingPointError(
                        f"{fault} at epoch {epoch}, batch {bstart // tconf.batch_size}; "
                        f"total parameter norm {np.linalg.norm(state.values):.3e}")
                nn.backward(loss)
                nn.adam_step(params, state)
                grad_norms.append(np.linalg.norm(state.grads))  # after the step, outside its time
                epoch_loss += float(loss.value) * len(batch)
                seen += len(batch)
                del loss  # the step's tape, whose arrays the next forward reuses
            del workspace
            metrics = evaluate_model(engine, params, eval_arr)
            report.train_losses.append(epoch_loss / seen)
            report.eval_losses.append(metrics["eval_loss"])
            report.calib_gaps.append(metrics["calib_gap"])
            report.calib_click.append(metrics["calib_click"])
            report.calib_pay.append(metrics["calib_pay"])
            report.grad_norms.append(float(np.mean(grad_norms)))
            if best is not None and metrics["eval_loss"] < best_eval:
                best_eval = metrics["eval_loss"]
                best[...] = state.values
            report.epoch_seconds.append(time.perf_counter() - epoch_start)
    finally:
        if best is not None and best_eval < np.inf:  # some epoch improved
            best_params = {name: nn.Var(value, requires_grad=False)
                           for name, value in nn.flat_views(params, best).items()}
            sortmodel.save_checkpoint(ckpt_path, best_params, engine)

    report.seconds = time.perf_counter() - start
    return report


def write_metrics(report: TrainReport, path: str | Path) -> None:
    """One tab-separated row per epoch; calib_click and calib_pay hold the
    per-position gaps, joined by commas."""
    lines = ["epoch\ttrain_loss\teval_loss\tcalib_gap\tseconds\tgrad_norm\t"
             "calib_click\tcalib_pay"]
    rows = zip(report.train_losses, report.eval_losses, report.calib_gaps,
               report.epoch_seconds, report.grad_norms, report.calib_click, report.calib_pay)
    for i, (tl, el, cg, secs, gn, click, pay) in enumerate(rows):
        lines.append(f"{i}\t{tl:.6f}\t{el:.6f}\t{cg:.6f}\t{secs:.2f}\t{gn:.6f}\t"
                     + "\t".join(",".join(f"{v:.6f}" for v in gaps) for gaps in (click, pay)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
