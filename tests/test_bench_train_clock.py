"""The benchmark's train clock still times every optimiser step.

`bench/workloads.py:StepClock` times a step from its `model.forward` call
to the return of its `nn.adam_step`, and captures one evaluation batch by
wrapping `trainer.evaluate_model`. It finds all three by module attribute, so
a trainer that stopped calling one of them through its module would make the
`train` workload fail, or time nothing, without this test.
"""

import math

import numpy as np

from sortgen import model, nn, simulator, trainer
from sortgen.core import EngineConfig
from sortgen.simulator import SimConfig
from tests.helpers import load_bench_workloads


def test_step_clock_times_each_training_step_and_captures_an_eval_batch(monkeypatch):
    workloads = load_bench_workloads(monkeypatch)
    engine = EngineConfig(l_s=10, l_o=5, max_count=5, d_model=16, n_heads=2, n_layers=1)
    dataset = simulator.build_dataset(engine, SimConfig(n_items=40, sessions=150, seed=21))
    tconf = trainer.TrainConfig(batch_size=16, epochs=1)
    originals = (model.forward, nn.adam_step, trainer.evaluate_model)
    clock = workloads.StepClock()
    undo = clock.install()
    try:
        clock.capture = True
        params = model.init_params(engine, seed=1)
        trainer.train(dataset, params, engine, tconf)
    finally:
        workloads.spans.uninstall(undo)
    assert (model.forward, nn.adam_step, trainer.evaluate_model) == originals

    n_train = len(trainer._session_hash_split(dataset.users, tconf.eval_fraction)[0])
    assert len(clock.steps_ns) == math.ceil(n_train / tconf.batch_size)
    assert all(ns > 0 for ns in clock.steps_ns)
    assert clock.samples == n_train
    # What run_train does with the captured evaluation data afterwards.
    assert clock.eval_arrays is not None and clock.eval_inputs is not None
    out = model.forward(engine, params, *clock.eval_inputs)
    assert out.click.shape[1:] == (engine.l_o, engine.max_count)
    assert np.isfinite(trainer.evaluate_model(engine, params, clock.eval_arrays)["eval_loss"])
