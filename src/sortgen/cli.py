"""Command-line entry points: simulate, train, rerank, evaluate, bench, oracle, serve."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from sortgen import generation, model as sortmodel, server as srv, simulator, trainer, values
from sortgen.core import (
    ConfigError,
    EngineConfig,
    ObjectiveWeights,
    config_from_raw,
    load_config_file,
    raw_value,
    validate_config,
)
from sortgen.simulator import SimConfig


class CommandError(Exception):
    """A failure that the CLI reports as `error: MESSAGE` with exit code 1."""


def _load(args) -> tuple[EngineConfig, ObjectiveWeights, dict[str, str]]:
    if args.config:
        engine, weights, raw = load_config_file(args.config)
    else:
        engine, weights, raw = EngineConfig(), ObjectiveWeights(), {}
    if args.seed is not None:
        engine = dataclasses.replace(engine, seed=args.seed)
    validate_config(engine)
    return engine, weights, raw


def _load_with_checkpoint(args) -> tuple[dict, EngineConfig, ObjectiveWeights, dict[str, str]]:
    """The checkpoint's parameters and engine, and the --config weights and keys.

    The engine comes from the checkpoint, so an engine key of --config (a
    field of EngineConfig, or a queue.* key) whose value differs from the
    checkpoint's is a ConfigError naming the key, not silently dropped.
    --seed replaces the engine's seed, which seeds the commands' samples.
    """
    if not args.ckpt or not Path(args.ckpt).is_file():
        raise CommandError(f"checkpoint not found: {args.ckpt}")
    params, engine = sortmodel.load_checkpoint(args.ckpt)
    engine = dataclasses.replace(engine, seed=engine.seed if args.seed is None else args.seed)
    config, weights, raw = _load(args)
    for f in dataclasses.fields(EngineConfig):
        if f.name in raw and getattr(config, f.name) != getattr(engine, f.name):
            raise ConfigError(f"{f.name}: --config sets {getattr(config, f.name)!r}, but the "
                              f"checkpoint's engine has {getattr(engine, f.name)!r}")
    queue_keys = [key for key in raw if key.startswith("queue.")]
    if queue_keys and config.queue_specs != engine.queue_specs:
        raise ConfigError(f"{', '.join(queue_keys)}: --config queues differ from the "
                          f"checkpoint's engine queues")
    return params, engine, weights, raw


def _data_file(args, default: str | None = None) -> Path:
    """The --data file (or `default`); a missing file is a CommandError."""
    path = args.data or default
    if not path or not Path(path).is_file():
        raise CommandError(f"data file not found: {path}")
    return Path(path)


def _setting(args, raw: dict[str, str], flag: str, key: str | None, default):
    """(where it came from, value) of the config key `key`, when set, read as
    the type of `default`, or else of the flag whose attribute is `flag`."""
    if key in raw:
        return key, raw_value(raw, key, default)
    return "--" + flag.replace("_", "-"), getattr(args, flag)


def _count(args, raw: dict[str, str], flag: str, key: str | None = None) -> int:
    """The count that the config key `key`, when set, or else the flag gives;
    one below 1 is a ConfigError naming where it came from."""
    source, n = _setting(args, raw, flag, key, 0)
    if n < 1:
        raise ConfigError(f"{source} must be >= 1, got {n}")
    return n


def _amount(args, raw: dict[str, str], flag: str, key: str) -> float:
    """The number that the config key `key`, when set, or else the flag gives;
    one that is negative or not finite is a ConfigError naming where it came
    from."""
    source, x = _setting(args, raw, flag, key, 0.0)
    if not (math.isfinite(x) and x >= 0.0):
        raise ConfigError(f"{source} must be finite and >= 0, got {x}")
    return x


def default_template_pattern(engine: EngineConfig) -> tuple[int, ...]:
    if engine.template_pattern:
        return engine.template_pattern
    q = len(engine.queue_specs)
    return tuple(i % q for i in range(engine.l_o))


def cmd_simulate(args) -> int:
    engine, _, raw = _load(args)
    sim = config_from_raw(SimConfig, raw, "sim.")
    if args.seed is not None:
        sim = dataclasses.replace(sim, seed=args.seed)
    dataset = simulator.build_dataset(engine, sim)
    out = Path(args.out or "dataset.jsonl")
    simulator.write_dataset(dataset, out)
    catalog_path = out.with_suffix(".catalog.jsonl")
    simulator.write_catalog(dataset.features, catalog_path)  # a built table is its catalog
    print(f"wrote {len(dataset)} sessions to {out}")
    print(f"wrote {dataset.n_catalog} catalog items to {catalog_path}")
    return 0


def cmd_train(args) -> int:
    engine, _, raw = _load(args)
    tconf = config_from_raw(trainer.TrainConfig, raw, "train.")
    dataset = simulator.read_dataset(_data_file(args, "dataset.jsonl"))
    params = sortmodel.init_params(engine)
    ckpt = Path(args.ckpt or "model.ckpt")
    report = trainer.train(dataset, params, engine, tconf, ckpt_path=ckpt)
    if args.out:
        trainer.write_metrics(report, args.out)
    print(f"loss_mode={report.loss_mode}")
    for i, (tl, el, cg) in enumerate(zip(report.train_losses, report.eval_losses,
                                         report.calib_gaps)):
        print(f"epoch {i}: train_loss={tl:.4f} eval_loss={el:.4f} calib_gap={cg:.4f}")
    print(f"checkpoint: {ckpt} ({report.seconds:.1f}s)")
    return 0


def cmd_rerank(args) -> int:
    params, engine, weights, _ = _load_with_checkpoint(args)
    doc = json.loads(_data_file(args).read_text(encoding="utf-8"))
    user, pool, req_weights, lam = srv.parse_rerank_request(doc, engine)
    response = srv.rerank(engine, params, user, pool, req_weights or weights, lam)
    print(json.dumps(response, sort_keys=True))
    return 0


def _method_slates(engine, weights, vm, features, user) -> dict:
    """Pool rows per method: sortgen, prior-score baseline, template, top queue."""
    queues = generation.build_queues(features, engine.queue_specs,
                                     engine.partition_strategy, engine.l_o)
    return {
        "sortgen": generation.generate(user, queues, vm, weights).rows,
        "baseline": np.lexsort((features.ids, -features.score[:, 0]))[:engine.l_o],
        "template": generation.template_generate(queues, default_template_pattern(engine)).rows,
        "top_queue": generation.top_queue_generate(features, weights, engine.l_o).rows,
    }


def _cumulative_curves(packed, features, rows, user) -> dict[str, np.ndarray]:
    """Per-position cumulative click/pay/gmv from clamped model increments,
    on a value model's packed weights."""
    rows = np.asarray(rows)
    click, pay = sortmodel.infer(packed, features.emb[rows][None],
                                 user.user_features[None], features.score[rows][None])
    e_click = values.expected_counts_batch(click)[0]
    e_pay = values.expected_counts_batch(pay)[0]
    click_incr = np.clip(np.diff(e_click, prepend=0.0), 0.0, None)
    pay_incr = np.clip(np.diff(e_pay, prepend=0.0), 0.0, None)
    return {"click": np.cumsum(click_incr), "pay": np.cumsum(pay_incr),
            "gmv": np.cumsum(features.price[rows] * pay_incr)}


def evaluate_curves(engine: EngineConfig, weights: ObjectiveWeights, params: dict,
                    catalog: sortmodel.ItemFeatures, n_pools: int,
                    seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Mean cumulative value curves per method over sampled evaluation pools."""
    rng = np.random.default_rng(seed)
    methods = ("sortgen", "baseline", "template", "top_queue")
    sums = {m: {k: np.zeros(engine.l_o) for k in ("click", "pay", "gmv")} for m in methods}
    vm = generation.ValueModel(engine, params)
    for _ in range(n_pools):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(catalog, engine.l_s, rng)
        slates = _method_slates(engine, weights, vm, features, user)
        for m, rows in slates.items():
            curves = _cumulative_curves(vm.weights, features, rows, user)
            for k in sums[m]:
                sums[m][k] += curves[k]
    for m in methods:
        for k in sums[m]:
            sums[m][k] /= n_pools
        sums[m]["combined"] = (weights.alpha * sums[m]["click"]
                               + weights.beta * sums[m]["pay"]
                               + weights.gamma * sums[m]["gmv"])
    return sums


def format_curves(curves: dict, l_o: int) -> str:
    lines = ["method\tobjective\tposition\tcumulative_value"]
    for m in sorted(curves):
        for obj in ("click", "pay", "gmv", "combined"):
            for j in range(l_o):
                lines.append(f"{m}\t{obj}\t{j + 1}\t{curves[m][obj][j]:.6f}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    params, engine, weights, raw = _load_with_checkpoint(args)
    dataset = simulator.read_dataset(_data_file(args))
    n_pools = _count(args, raw, "pools", "eval.pools")
    curves = evaluate_curves(engine, weights, params, dataset.catalog, n_pools,
                             seed=engine.seed + 99)
    table = format_curves(curves, engine.l_o)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote curves for {n_pools} pools to {args.out}")
    else:
        print(table, end="")
    return 0


def run_bench(engine: EngineConfig, weights: ObjectiveWeights, params: dict,
              catalog: sortmodel.ItemFeatures, slates: int, overhead_us: float,
              seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = {"generate": [], "reference": []}
    invocations = {"generate": [], "reference": []}
    vm = generation.ValueModel(engine, params)
    for _ in range(slates):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(catalog, engine.l_s, rng)
        queues = generation.build_queues(features, engine.queue_specs,
                                         engine.partition_strategy, engine.l_o)
        for name, fn in (("generate", generation.generate),
                         ("reference", generation.generate_iterative_reference)):
            trace = fn(user, queues, vm, weights)
            rows[name].append(trace.wall_ns + int(trace.invocations * overhead_us * 1000))
            invocations[name].append(trace.invocations)
    report = {}
    for name in rows:
        arr = np.array(rows[name], dtype=np.float64)
        report[name] = {
            "median_ms": float(np.median(arr)) / 1e6,
            "p99_ms": float(np.percentile(arr, 99)) / 1e6,
            "invocations": int(invocations[name][0]),
            "overhead_ms": invocations[name][0] * overhead_us / 1000.0,
        }
    report["median_ratio"] = report["reference"]["median_ms"] / report["generate"]["median_ms"]
    report["overhead_ratio"] = (report["reference"]["overhead_ms"]
                                / max(report["generate"]["overhead_ms"], 1e-12))
    return report


def cmd_bench(args) -> int:
    params, engine, weights, raw = _load_with_checkpoint(args)
    slates = _count(args, raw, "slates", "bench.slates")
    overhead_us = _amount(args, raw, "overhead_us", "bench.overhead_us")
    catalog = simulator.catalog_table(max(engine.l_s * 4, 50), engine.d_emb, 8, engine.seed)
    report = run_bench(engine, weights, params, catalog, slates, overhead_us,
                       seed=engine.seed)
    for name in ("generate", "reference"):
        r = report[name]
        print(f"{name}: median={r['median_ms']:.3f}ms p99={r['p99_ms']:.3f}ms "
              f"invocations={r['invocations']} simulated_overhead={r['overhead_ms']:.3f}ms")
    print(f"median ratio (reference/generate): {report['median_ratio']:.2f}")
    print(f"overhead ratio (reference/generate): {report['overhead_ratio']:.2f}")
    return 0


def run_oracle_study(engine: EngineConfig, weights: ObjectiveWeights, params: dict,
                     pools: int, l_s: int, l_o: int, seed: int) -> dict:
    """Greedy-vs-exhaustive regret over small pools, plus a random-list floor."""
    # Keep max_count (head shapes) from the checkpoint; thresholds beyond the
    # prefix length are zero-masked anyway.
    small = dataclasses.replace(engine, l_s=l_s, l_o=l_o)
    catalog = simulator.catalog_table(max(l_s * 4, 50), engine.d_emb, 8, seed)
    rng = np.random.default_rng(seed + 1)
    greedy_ratios, random_ratios = [], []
    vm = generation.ValueModel(small, params)
    for _ in range(pools):
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(catalog, l_s, rng)
        best_val, _ = generation.exhaustive_oracle(features, user, vm, weights, l_o)
        queues = generation.build_queues(features, small.queue_specs,
                                         small.partition_strategy, l_o)
        trace = generation.generate(user, queues, vm, weights, lam=1.0)
        greedy_val = float(vm.pool_values(features, np.array([trace.rows]), user, weights)[0])
        perm = rng.permutation(l_s)[:l_o]
        rand_val = float(vm.pool_values(features, perm[None], user, weights)[0])
        greedy_ratios.append(greedy_val / best_val)
        random_ratios.append(rand_val / best_val)
    return {
        "greedy_ratios": np.array(greedy_ratios),
        "random_ratios": np.array(random_ratios),
        "mean_greedy": float(np.mean(greedy_ratios)),
        "mean_random": float(np.mean(random_ratios)),
        "max_greedy": float(np.max(greedy_ratios)),
    }


def cmd_oracle(args) -> int:
    params, engine, weights, raw = _load_with_checkpoint(args)
    pools = _count(args, raw, "pools")
    small_ls, small_lo = _count(args, raw, "small_ls"), _count(args, raw, "small_lo")
    if small_lo > engine.l_o:  # the checkpoint's position table has l_o rows
        raise ConfigError(f"--small-lo must be <= the checkpoint's l_o {engine.l_o}, "
                          f"got {small_lo}")
    study = run_oracle_study(engine, weights, params, pools=pools,
                             l_s=small_ls, l_o=small_lo, seed=engine.seed)
    if study["max_greedy"] > 1.0 + 1e-9:
        raise CommandError("greedy exceeded the exhaustive optimum")
    print(f"pools={pools} l_s={small_ls} l_o={small_lo}")
    print(f"mean greedy/optimal ratio:  {study['mean_greedy']:.4f}")
    print(f"mean random/optimal ratio:  {study['mean_random']:.4f}")
    print(f"greedy ratio max: {study['max_greedy']:.6f} (never exceeds 1)")
    return 0


def cmd_serve(args) -> int:
    # Checks --config against the checkpoint's engine; make_server loads it again.
    _, _, weights, _ = _load_with_checkpoint(args)
    server = srv.make_server(args.ckpt, args.port, weights)
    print(f"serving /rerank and /healthz on port {server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sortgen",
                                     description="slate re-ranking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key/value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--ckpt", help="checkpoint path")
        p.add_argument("--data", help="dataset or request file")
        p.add_argument("--out", help="output path")
        return p

    common(sub.add_parser("simulate", help="write a synthetic dataset + catalog"))
    common(sub.add_parser("train", help="train the value model"))
    common(sub.add_parser("rerank", help="rerank one request file"))
    p = common(sub.add_parser("evaluate", help="per-position cumulative value curves"))
    p.add_argument("--pools", type=int, default=200)
    p = common(sub.add_parser("bench", help="latency/invocation benchmark"))
    p.add_argument("--slates", type=int, default=1000)
    p.add_argument("--overhead-us", type=float, default=1000.0)
    p = common(sub.add_parser("oracle", help="greedy-vs-exhaustive regret study"))
    p.add_argument("--pools", type=int, default=100)
    p.add_argument("--small-ls", type=int, default=8)
    p.add_argument("--small-lo", type=int, default=4)
    p = common(sub.add_parser("serve", help="HTTP rerank service"))
    p.add_argument("--port", type=int, default=8080)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate, "train": cmd_train, "rerank": cmd_rerank,
        "evaluate": cmd_evaluate, "bench": cmd_bench, "oracle": cmd_oracle,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CommandError, srv.RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
