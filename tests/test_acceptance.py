"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`. The suite trains two models
on the default 20k-session simulated dataset, in two worker processes, so
the full run takes over a minute; every other criterion completes in
seconds.
"""

import concurrent.futures
import dataclasses
import itertools
import json
import multiprocessing
import sys
import threading
import urllib.request

import numpy as np
import pytest

from sortgen import (
    cli,
    generation,
    model as sortmodel,
    nn,
    server as srv,
    simulator,
    trainer,
    values,
)
from sortgen.core import EngineConfig, ObjectiveWeights, QueueSpec
from sortgen.simulator import SimConfig
from sortgen.trainer import TrainConfig
from tests.helpers import finite_diff_check, ground_truth_slate_value, table_items

WEIGHTS = ObjectiveWeights(alpha=5.0, beta=1.0, gamma=1.0)

SMALL = EngineConfig(l_s=12, l_o=4, d_model=16, n_layers=1, n_heads=2,
                     max_count=4, seed=9)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})",
          file=sys.stderr)
    assert ok, f"{criterion}: {detail}"


def _random_batch(config, n, l, seed):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, l, config.d_emb))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    user = rng.normal(size=(n, config.d_user))
    score = rng.uniform(0.01, 0.99, size=(n, l, 2))
    return emb, user, score


@pytest.fixture(scope="module")
def small_params():
    return sortmodel.init_params(SMALL)


def train_checkpoint(dataset, engine, ckpt_path):
    """Train a fresh model at TrainConfig() and write its best checkpoint."""
    return trainer.train(dataset, sortmodel.init_params(engine), engine, TrainConfig(),
                         ckpt_path=ckpt_path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Default-scale dataset plus ordered-regression and pointwise models.

    The two trainings do not depend on each other, so they run at once in two
    spawned worker processes. The workers inherit the suite's one-BLAS-thread
    environment (conftest.py), and each writes the same checkpoint bytes as a
    training in this process would.
    """
    root = tmp_path_factory.mktemp("acceptance")
    engine = EngineConfig()
    sim = SimConfig()
    dataset = simulator.build_dataset(engine, sim)
    engine_pw = dataclasses.replace(engine, loss_mode="pointwise")
    ckpt_or, ckpt_pw = root / "ordered.ckpt", root / "pointwise.ckpt"

    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as workers:
        ordered = workers.submit(train_checkpoint, dataset, engine, ckpt_or)
        pointwise = workers.submit(train_checkpoint, dataset, engine_pw, ckpt_pw)
        report_or = ordered.result()
        pointwise.result()
    params_or, _ = sortmodel.load_checkpoint(ckpt_or)
    params_pw, _ = sortmodel.load_checkpoint(ckpt_pw)

    return {
        "root": root, "engine": engine, "engine_pw": engine_pw, "sim": sim,
        "dataset": dataset, "params_or": params_or, "params_pw": params_pw,
        "ckpt_or": ckpt_or, "report_or": report_or,
        "gt": simulator.make_ground_truth(engine, sim),
    }


# --------------------------------------------------------------------------
# 1. Gradient correctness
# --------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    emb, user, score = _random_batch(SMALL, 2, SMALL.l_o, seed=1)
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 2, size=(2, SMALL.l_o))
    cum = np.cumsum(counts, axis=1)
    clicks = counts
    pays = (counts * rng.integers(0, 2, size=counts.shape))
    cum_pays = np.cumsum(pays, axis=1)

    params = sortmodel.init_params(SMALL)

    def ordered_loss():
        out = sortmodel.forward(SMALL, params, emb, user, score)
        return values.ordered_regression_loss(out, cum, cum_pays)

    err_or = finite_diff_check(params, ordered_loss, n_coords=60, seed=3)

    literal = dataclasses.replace(SMALL, head_mode="literal",
                                  loss_mode="pointwise")
    params_pw = sortmodel.init_params(literal)

    def pointwise_loss():
        out = sortmodel.forward(literal, params_pw, emb, user, score)
        return values.pointwise_loss(nn.index_last(out.click_logits, 0),
                                     nn.index_last(out.pay_logits, 0),
                                     clicks, pays)

    err_pw = finite_diff_check(params_pw, pointwise_loss, n_coords=60, seed=4)
    _report("1 gradient correctness", err_or < 1e-4 and err_pw < 1e-4,
            f"max rel err ordered={err_or:.2e} pointwise={err_pw:.2e} < 1e-4")


# --------------------------------------------------------------------------
# 2. Causality
# --------------------------------------------------------------------------

def test_criterion_02_causality(small_params):
    rng = np.random.default_rng(20)
    failures = 0
    for trial in range(100):
        l = int(rng.integers(2, SMALL.l_o + 1))
        emb, user, score = _random_batch(SMALL, 1, l, seed=100 + trial)
        t = int(rng.integers(1, l))  # 0-based perturbed position
        base = sortmodel.forward(SMALL, small_params, emb, user, score)
        emb2 = emb.copy()
        emb2[0, t] += rng.normal(size=SMALL.d_emb)
        score2 = score.copy()
        score2[0, t] = rng.uniform(0.01, 0.99, size=2)
        pert = sortmodel.forward(SMALL, small_params, emb2, user, score2)
        same = ((base.click.value[0, :t] == pert.click.value[0, :t]).all()
                and (base.pay.value[0, :t] == pert.pay.value[0, :t]).all())
        failures += not same
    _report("2 causality", failures == 0,
            f"{failures}/100 perturbations leaked into earlier rows")


# --------------------------------------------------------------------------
# 3. Single-pass equivalence
# --------------------------------------------------------------------------

def _specs(q):
    base = [("click", {"ctr": 1.0}), ("pay", {"ctr_cvr": 1.0}),
            ("gmv", {"ctr_cvr_price": 1.0})]
    return tuple(QueueSpec(n, c, i) for i, (n, c) in enumerate(base[:q]))


def test_criterion_03_single_pass_equivalence(small_params):
    catalog = simulator.catalog_table(80, SMALL.d_emb, 8, seed=30)
    rng = np.random.default_rng(31)
    grid = list(itertools.product((1, 2, 3), (1.0, 0.8, 0.5), ("dfs", "bfs")))
    per_cell = -(-1000 // len(grid))  # ceil -> 1008 instances total
    checked = mismatches = 0
    for q, lam, strategy in grid:
        for _ in range(per_cell):
            pool = simulator.sample_pool(catalog, SMALL.l_s, rng)
            user = simulator.sample_user(rng, SMALL.d_user)
            queues = generation.build_queues(pool, _specs(q), strategy, SMALL.l_o)
            vm = generation.ValueModel(SMALL, small_params)
            fast = generation.generate(user, queues, vm, WEIGHTS, lam=lam)
            ref = generation.generate_iterative_reference(user, queues, vm, WEIGHTS, lam=lam)
            same = fast.ids == ref.ids and fast.sources == ref.sources
            mismatches += not same
            checked += 1
    _report("3 single-pass equivalence", mismatches == 0,
            f"{checked} instances over q in {{1,2,3}}, lambda in "
            f"{{1.0,0.8,0.5}}, dfs/bfs; {mismatches} mismatches")


# --------------------------------------------------------------------------
# 4. Invocation budget
# --------------------------------------------------------------------------

def test_criterion_04_invocation_budget(small_params):
    q = len(SMALL.queue_specs)
    catalog = simulator.catalog_table(80, SMALL.d_emb, 8, seed=40)
    rng = np.random.default_rng(41)
    pool = simulator.sample_pool(catalog, q * SMALL.l_o, rng)
    user = simulator.sample_user(rng, SMALL.d_user)
    queues = generation.build_queues(pool, SMALL.queue_specs, "dfs", SMALL.l_o)
    vm = generation.ValueModel(SMALL, small_params)
    fast = generation.generate(user, queues, vm, WEIGHTS)
    ref = generation.generate_iterative_reference(user, queues, vm, WEIGHTS)

    bench_engine = dataclasses.replace(SMALL, l_s=q * SMALL.l_o)
    report = cli.run_bench(bench_engine, WEIGHTS, small_params, catalog,
                           slates=20, overhead_us=1000.0, seed=42)
    ok = (fast.invocations <= SMALL.l_o
          and ref.invocations == q * SMALL.l_o
          and report["overhead_ratio"] >= q)
    _report("4 invocation budget", ok,
            f"generate={fast.invocations} <= l_o={SMALL.l_o}, "
            f"reference={ref.invocations} == q*l_o={q * SMALL.l_o}, "
            f"bench overhead ratio={report['overhead_ratio']:.2f} >= q={q}")


# --------------------------------------------------------------------------
# 5. Oracle regret sanity
# --------------------------------------------------------------------------

def test_criterion_05_oracle_regret(small_params):
    study = cli.run_oracle_study(SMALL, WEIGHTS, small_params,
                                 pools=100, l_s=8, l_o=4, seed=50)
    ok = (study["max_greedy"] <= 1.0 + 1e-9
          and study["mean_greedy"] > study["mean_random"])
    _report("5 oracle regret", ok,
            f"100 pools l_s=8 l_o=4: greedy <= optimum everywhere "
            f"(max ratio {study['max_greedy']:.6f}), mean greedy "
            f"{study['mean_greedy']:.4f} > mean random {study['mean_random']:.4f}")


# --------------------------------------------------------------------------
# 6. Loss and value identities
# --------------------------------------------------------------------------

def test_criterion_06_loss_identities(small_params):
    # Telescoping: per-position increments sum back to the expected count.
    emb, user, score = _random_batch(SMALL, 3, SMALL.l_o, seed=60)
    out = sortmodel.forward(SMALL, small_params, emb, user, score)
    counts = values.expected_counts_batch(out.click.value)
    incr = np.diff(counts, prepend=0.0, axis=-1)
    telescoping = float(np.abs(incr.cumsum(axis=-1) - counts).max())

    # Linearity and argmax invariance of the combined objective.
    rng = np.random.default_rng(61)
    v = rng.uniform(0.0, 2.0, size=(20, 3))  # (v_click, v_pay, v_gmv) per list
    combined = WEIGHTS.alpha * v[:, 0] + WEIGHTS.beta * v[:, 1] + WEIGHTS.gamma * v[:, 2]
    scaled = 3.7 * WEIGHTS.alpha * v[:, 0] + 3.7 * WEIGHTS.beta * v[:, 1] \
        + 3.7 * WEIGHTS.gamma * v[:, 2]
    linearity = np.allclose(scaled, 3.7 * combined, rtol=0, atol=1e-12)
    argmax_invariant = int(np.argmax(scaled)) == int(np.argmax(combined))

    # Hand-worked ordered-regression loss: three click terms of -ln(1/2),
    # pay side predicted perfectly (zero probability, zero labels).
    p = np.zeros((1, 2, SMALL.max_count))
    p[0, 0, 0] = 0.5
    p[0, 1, 0] = 0.5
    p[0, 1, 1] = 0.5
    out_hand = sortmodel.ModelOutput(
        click=nn.Var(p), pay=nn.Var(np.zeros_like(p)),
        click_logits=nn.Var(np.zeros_like(p)), pay_logits=nn.Var(np.zeros_like(p)),
        valid=sortmodel.valid_mask(2, SMALL.max_count))
    cum = np.array([[1, 2]])
    loss = values.ordered_regression_loss(out_hand, cum, np.zeros_like(cum))
    hand = abs(float(loss.value) - 2.0794415416798357)

    ok = telescoping < 1e-12 and linearity and argmax_invariant and hand < 1e-6
    _report("6 loss identities", ok,
            f"telescoping {telescoping:.1e} < 1e-12, linearity and argmax "
            f"invariance hold, hand example off by {hand:.1e} < 1e-6")


# --------------------------------------------------------------------------
# 7. Training efficacy vs ablations
# --------------------------------------------------------------------------

def test_criterion_07_training_efficacy(trained):
    engine, gt = trained["engine"], trained["gt"]
    pattern = cli.default_template_pattern(engine)
    rng = np.random.default_rng(70)
    vals = {m: [] for m in ("ordered", "pointwise", "template", "top_queue")}
    for _ in range(200):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(trained["dataset"].catalog, engine.l_s, rng)
        queues = generation.build_queues(features, engine.queue_specs,
                                         engine.partition_strategy, engine.l_o)
        vm = generation.ValueModel(engine, trained["params_or"])
        slates = {
            "ordered": generation.generate(user, queues, vm, WEIGHTS),
            "pointwise": generation.generate(
                user, queues,
                generation.ValueModel(trained["engine_pw"], trained["params_pw"]),
                WEIGHTS),
            "template": generation.template_generate(queues, pattern),
            "top_queue": generation.top_queue_generate(features, WEIGHTS, engine.l_o),
        }
        for name, slate in slates.items():
            vals[name].append(ground_truth_slate_value(
                gt.bind(features), user, slate.rows, WEIGHTS))
    means = {m: float(np.mean(v)) for m, v in vals.items()}
    margins = {m: means["ordered"] - means[m]
               for m in ("pointwise", "template", "top_queue")}
    ok = all(margin > 0 for margin in margins.values())
    _report("7 training efficacy", ok,
            "mean ground-truth combined value on 200 held-out pools: "
            + ", ".join(f"{m}={means[m]:.3f}" for m in means)
            + "; margins " + ", ".join(f"+{v:.3f} vs {m}"
                                       for m, v in margins.items()))


# --------------------------------------------------------------------------
# 8. Diversity monotonicity
# --------------------------------------------------------------------------

def test_criterion_08_diversity(trained):
    engine = trained["engine"]
    lambdas = (1.0, 0.8, 0.5)
    sims = {lam: [] for lam in lambdas}
    cats = {lam: [] for lam in lambdas}
    rng = np.random.default_rng(80)
    for _ in range(500):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(trained["dataset"].catalog, engine.l_s, rng)
        queues = generation.build_queues(features, engine.queue_specs,
                                         engine.partition_strategy, engine.l_o)
        for lam in lambdas:
            vm = generation.ValueModel(engine, trained["params_or"])
            rows = list(generation.generate(user, queues, vm, WEIGHTS, lam=lam).rows)
            sims[lam].append(generation.intra_window_similarity(
                features.emb[rows], engine.window_w))
            cats[lam].append(len(set(features.cat[rows].tolist())))
    mean_sims = [float(np.mean(sims[lam])) for lam in lambdas]
    mean_cats = {lam: float(np.mean(cats[lam])) for lam in lambdas}
    ok = (all(b <= a + 1e-12 for a, b in zip(mean_sims, mean_sims[1:]))
          and mean_cats[0.8] >= mean_cats[1.0])
    _report("8 diversity", ok,
            f"mean window similarity over 500 pools at lambda 1.0/0.8/0.5 = "
            f"{mean_sims[0]:.4f}/{mean_sims[1]:.4f}/{mean_sims[2]:.4f} "
            f"(non-increasing); distinct categories {mean_cats[1.0]:.3f} -> "
            f"{mean_cats[0.8]:.3f}")


# --------------------------------------------------------------------------
# 9. Evaluation curves
# --------------------------------------------------------------------------

def test_criterion_09_evaluation_curves(trained):
    engine = trained["engine"]
    curves = cli.evaluate_curves(engine, WEIGHTS, trained["params_or"],
                                 trained["dataset"].catalog, n_pools=200,
                                 seed=90)
    non_decreasing = all(
        (np.diff(series) >= -1e-12).all()
        for method in curves.values() for series in method.values())
    sortgen_end = curves["sortgen"]["combined"][-1]
    baseline_end = curves["baseline"]["combined"][-1]
    ok = non_decreasing and sortgen_end > baseline_end
    _report("9 evaluation curves", ok,
            f"all cumulative curves non-decreasing over 200 pools; combined "
            f"value at l_o: sortgen {sortgen_end:.3f} > baseline "
            f"{baseline_end:.3f}")


# --------------------------------------------------------------------------
# 10. Persistence and serving round-trips
# --------------------------------------------------------------------------

def test_criterion_10_persistence_and_serving(trained):
    root = trained["root"]
    engine = trained["engine"]

    # Dataset byte-identical round trip.
    small_ds = simulator.build_dataset(
        dataclasses.replace(engine, l_s=8, l_o=4, max_count=4),
        SimConfig(n_items=30, sessions=40, seed=10))
    p1, p2 = root / "roundtrip1.jsonl", root / "roundtrip2.jsonl"
    simulator.write_dataset(small_ds, p1)
    simulator.write_dataset(simulator.read_dataset(p1), p2)
    bytes_equal = p1.read_bytes() == p2.read_bytes()

    # Checkpoint reload reproduces the forward pass to 1e-12.
    emb, user, score = _random_batch(engine, 2, engine.l_o, seed=100)
    out_a = sortmodel.forward(engine, trained["params_or"], emb, user, score)
    reloaded, _ = sortmodel.load_checkpoint(trained["ckpt_or"])
    out_b = sortmodel.forward(engine, reloaded, emb, user, score)
    ckpt_err = float(np.abs(out_a.click.value - out_b.click.value).max())

    # The HTTP service and the CLI rerank path return the same slate.
    rng = np.random.default_rng(101)
    pool = table_items(simulator.sample_pool(trained["dataset"].catalog, engine.l_s, rng))
    user_ctx = simulator.sample_user(rng, engine.d_user)
    doc = {
        "user": [float(v) for v in user_ctx.user_features],
        "candidates": [{"id": it.id, "emb": [float(v) for v in it.embedding],
                        "price": it.price, "ctr": it.prior_ctr,
                        "cvr": it.prior_cvr, "cat": it.category}
                       for it in pool],
    }
    httpd = srv.make_server(str(trained["ckpt_or"]), 0, WEIGHTS)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        req = urllib.request.Request(
            f"http://127.0.0.1:{httpd.server_address[1]}/rerank",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            served = json.loads(resp.read())
    finally:
        httpd.shutdown()
    parsed = srv.parse_rerank_request(doc, engine)
    direct = srv.rerank(engine, reloaded, parsed[0], parsed[1], WEIGHTS)
    serve_equal = (served["item_ids"] == direct["item_ids"]
                   and served["source_queues"] == direct["source_queues"]
                   and abs(served["combined_value"] - direct["combined_value"])
                   < 1e-9)

    ok = bytes_equal and ckpt_err < 1e-12 and serve_equal
    _report("10 persistence and serving", ok,
            f"dataset bytes equal={bytes_equal}, checkpoint forward max err="
            f"{ckpt_err:.1e} < 1e-12, served slate == direct rerank="
            f"{serve_equal}")
