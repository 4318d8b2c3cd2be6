"""Simulate a click/purchase log and train the list-value model on it.

A synthetic marketplace produces browsing sessions with position decay
and a contrast bonus for locally diverse slates. The transformer-based
value model is then fit with the ordered-regression loss and the run is
summarized epoch by epoch.

Run:  python3 demos/01_simulate_and_train.py
"""

import dataclasses
import tempfile
from pathlib import Path

from sortgen import model as sortmodel, simulator, trainer
from sortgen.core import EngineConfig
from sortgen.simulator import SimConfig
from sortgen.trainer import TrainConfig

# A deliberately small setup so the demo finishes in a few seconds.
engine = EngineConfig(l_s=12, l_o=5, d_model=16, n_layers=1, max_count=5, seed=1)
sim = SimConfig(n_items=60, sessions=600, seed=1)

dataset = simulator.build_dataset(engine, sim)
print(f"simulated {len(dataset)} sessions over {len(dataset.catalog)} items")

sample = dataset.samples[0]
print(f"first session: clicks={sample.labels.clicks.tolist()} "
      f"pays={sample.labels.pays.tolist()}")

workdir = Path(tempfile.mkdtemp())
data_path = workdir / "dataset.jsonl"
simulator.write_dataset(dataset, data_path)
print(f"dataset written to {data_path} "
      f"({data_path.stat().st_size / 1024:.0f} KiB, line-delimited records)")

params = sortmodel.init_params(engine)
print(f"model has {sortmodel.expected_param_count(engine)} parameters")

report = trainer.train(dataset, params, engine, TrainConfig(epochs=4),
                       ckpt_path=workdir / "model.ckpt")
for i, (tl, el, cg) in enumerate(zip(report.train_losses, report.eval_losses,
                                     report.calib_gaps)):
    print(f"epoch {i}: train={tl:.4f} eval={el:.4f} calibration_gap={cg:.4f}")

# The checkpoint holds the best-eval epoch; reloading reproduces it exactly.
best, loaded_engine = sortmodel.load_checkpoint(workdir / "model.ckpt")
assert loaded_engine == dataclasses.replace(engine)
print(f"checkpoint reloaded: {len(best)} parameter tensors, config verified")
