"""Measure the latency advantage of single-pass slate generation.

The naive approach re-invokes the value model once per candidate per
position, so a slate of l_o positions over q queues costs q*l_o calls.
Batching the per-step candidates into one forward caps the count at l_o.
When each call carries a fixed overhead (network hop, feature fetch),
the saving is the overhead ratio reported here.

Run:  python3 demos/05_latency_benchmark.py
"""

from sortgen import model as sortmodel, simulator
from sortgen.cli import run_bench
from sortgen.core import EngineConfig, ObjectiveWeights

engine = EngineConfig(l_s=15, l_o=5, d_model=16, n_layers=1, max_count=5, seed=5)
weights = ObjectiveWeights()
params = sortmodel.init_params(engine)
catalog = simulator.catalog_table(60, engine.d_emb, 8, seed=5)

# Simulate a 1 ms fixed cost per model call, typical of a remote scorer.
report = run_bench(engine, weights, params, catalog, slates=50,
                   overhead_us=1000.0, seed=5)

for name in ("generate", "reference"):
    r = report[name]
    print(f"{name:>9}: median={r['median_ms']:.3f}ms p99={r['p99_ms']:.3f}ms "
          f"invocations={r['invocations']} "
          f"simulated overhead={r['overhead_ms']:.1f}ms")
print(f"\nmedian latency ratio (reference / single-pass): "
      f"{report['median_ratio']:.2f}x")
print(f"overhead ratio (reference / single-pass):       "
      f"{report['overhead_ratio']:.2f}x")
print(f"\nwith {len(engine.queue_specs)} queues the overhead ratio is at least "
      f"{len(engine.queue_specs)}x whenever per-call cost dominates")
