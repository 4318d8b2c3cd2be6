"""Trade list value against local diversity with the MMR selection rule.

At each greedy step the candidate score is
    lambda * value  -  (1 - lambda) * max similarity to the recent window.
lambda = 1 ranks purely by predicted value; lowering lambda penalizes
candidates that resemble recently placed items. This sweep shows the mean
intra-window similarity of generated slates falling as lambda drops,
while the number of distinct categories per slate rises.

Run:  python3 demos/03_diversity_tradeoff.py
"""

import numpy as np

from sortgen import generation, model as sortmodel, simulator
from sortgen.core import EngineConfig, ObjectiveWeights

engine = EngineConfig(l_s=15, l_o=6, d_model=16, n_layers=1, max_count=6, seed=3)
weights = ObjectiveWeights()
params = sortmodel.init_params(engine)
catalog = simulator.catalog_table(80, engine.d_emb, 8, seed=3)

N_POOLS = 150
print(f"{'lambda':>7} {'mean window similarity':>23} {'mean distinct categories':>25}")
for lam in (1.0, 0.8, 0.5):
    rng = np.random.default_rng(33)  # same pools for every lambda
    sims, cats = [], []
    for _ in range(N_POOLS):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(catalog, engine.l_s, rng)
        queues = generation.build_queues(features, engine.queue_specs,
                                         engine.partition_strategy, engine.l_o)
        vm = generation.ValueModel(engine, params)
        rows = list(generation.generate(user, queues, vm, weights, lam=lam).rows)
        sims.append(generation.intra_window_similarity(features.emb[rows], engine.window_w))
        cats.append(len(set(features.cat[rows].tolist())))
    print(f"{lam:>7.1f} {np.mean(sims):>23.4f} {np.mean(cats):>25.3f}")
