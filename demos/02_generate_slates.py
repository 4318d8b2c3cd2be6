"""Build objective queues and generate a slate two ways.

The candidate pool is partitioned into disjoint per-objective queues
(combined, pay, gross merchandise value). Greedy selection then extends the
slate one position at a time, scoring each queue head by the model's
predicted list value. The single-pass generator batches the per-step
candidates into one forward; the iterative reference issues one model
call per candidate. Both produce bit-identical slates.

Run:  python3 demos/02_generate_slates.py
"""

import numpy as np

from sortgen import generation, model as sortmodel, simulator
from sortgen.core import EngineConfig, ObjectiveWeights

engine = EngineConfig(l_s=15, l_o=5, d_model=16, n_layers=1, max_count=5, seed=2)
weights = ObjectiveWeights(alpha=5.0, beta=1.0, gamma=1.0)
params = sortmodel.init_params(engine)

rng = np.random.default_rng(2)
catalog = simulator.catalog_table(60, engine.d_emb, 8, seed=2)
pool = simulator.sample_pool(catalog, engine.l_s, rng)  # packed rows of the catalog
user = simulator.sample_user(rng, engine.d_user)

queues = generation.build_queues(pool, engine.queue_specs, engine.partition_strategy,
                                 engine.l_o)
for spec, queue in zip(engine.queue_specs, queues.queues):
    ids = pool.ids[queue].tolist()
    print(f"queue {spec.name!r} ({spec.coeffs}): items {ids}")

vm = generation.ValueModel(engine, params)
trace = generation.generate(user, queues, vm, weights)
print(f"\nsingle-pass slate: {trace.ids}")
print(f"source queues:     {list(trace.sources)}")
print(f"model invocations: {trace.invocations} (at most l_o={engine.l_o})")

# The queues and the value model are only read, so both generators share them.
ref = generation.generate_iterative_reference(user, queues, vm, weights)
print(f"\nreference slate:   {ref.ids}")
print(f"reference calls:   {ref.invocations} (one per candidate per step)")

assert trace.ids == ref.ids and trace.sources == ref.sources
print("\nboth strategies selected the identical slate")

# Each step of the trace records every candidate considered.
step = trace.steps[0]
print("\nfirst-step candidates (queue, item, value, selection score):")
for qi, item_id, value, score in step.candidates:
    marker = " <- chosen" if qi == step.chosen_queue else ""
    print(f"  queue {qi}, item {item_id}: value={value:.4f} score={score:.4f}{marker}")
