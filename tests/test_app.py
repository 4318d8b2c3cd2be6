"""End-to-end checks for the command-line pipeline and the HTTP service."""

import dataclasses
import http.client
import json
import math
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sortgen import cli, core, generation, model as sortmodel, server as srv, simulator, values
from sortgen.core import ConfigError, EngineConfig, ObjectiveWeights, load_config_file
from tests.helpers import parse_request_reference, table_items

SMALL_CONFIG_TEXT = """\
# tiny end-to-end configuration
l_s = 10
l_o = 4
d_model = 16
n_layers = 1
n_heads = 2
max_count = 4
seed = 3

sim.n_items = 40
sim.sessions = 120
sim.seed = 3

train.epochs = 2
train.batch_size = 32
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run simulate + train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("app")
    cfg = root / "engine.cfg"
    cfg.write_text(SMALL_CONFIG_TEXT, encoding="utf-8")
    data = root / "dataset.jsonl"
    ckpt = root / "model.ckpt"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(data)])
    assert rc == 0
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data),
                   "--ckpt", str(ckpt), "--out", str(root / "metrics.tsv")])
    assert rc == 0
    return {"root": root, "cfg": cfg, "data": data, "ckpt": ckpt}


def _request_doc(workdir, n_candidates=None, seed=12):
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    catalog = simulator.read_catalog(workdir["data"].with_suffix(".catalog.jsonl"))
    rng = np.random.default_rng(seed)
    n = n_candidates if n_candidates is not None else engine.l_s
    pool = table_items(simulator.sample_pool(catalog, n, rng))
    user = simulator.sample_user(rng, engine.d_user)
    return {
        "user": [float(v) for v in user.user_features],
        "candidates": [{"id": it.id, "emb": [float(v) for v in it.embedding],
                        "price": it.price, "ctr": it.prior_ctr,
                        "cvr": it.prior_cvr, "cat": it.category}
                       for it in pool],
    }, engine, params


def test_simulate_writes_dataset_and_catalog(workdir):
    dataset = simulator.read_dataset(workdir["data"])
    assert len(dataset.samples) == 120
    assert len(dataset.catalog.ids) == 40
    assert workdir["data"].with_suffix(".catalog.jsonl").exists()


def test_train_writes_checkpoint_and_metrics(workdir):
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    assert engine.l_o == 4
    lines = (workdir["root"] / "metrics.tsv").read_text().strip().splitlines()
    assert lines[0].split("\t")[0] == "epoch"
    assert len(lines) == 3  # header + 2 epochs


def test_rerank_command_outputs_slate(workdir, capsys):
    doc, engine, _ = _request_doc(workdir)
    req = workdir["root"] / "request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["rerank", "--ckpt", str(workdir["ckpt"]), "--data", str(req)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["item_ids"]) == engine.l_o
    assert len(out["item_ids"]) == len(set(out["item_ids"]))
    assert len(out["source_queues"]) == engine.l_o
    assert out["combined_value"] > 0.0


def test_rerank_command_rejects_short_pool(workdir, capsys):
    doc, _, _ = _request_doc(workdir, n_candidates=2)
    req = workdir["root"] / "short.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["rerank", "--ckpt", str(workdir["ckpt"]), "--data", str(req)])
    assert rc == 1
    assert "insufficient candidates" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rerank", "evaluate", "bench", "oracle", "serve"])
def test_config_engine_key_differing_from_checkpoint_is_config_error(workdir, capsys, command,
                                                                      monkeypatch):
    # The checkpoint has l_o = 4; the engine comes from it, so l_o = 3 cannot apply.
    def no_server(*args, **kwargs):
        raise AssertionError("serve started despite the config error")

    monkeypatch.setattr(srv, "make_server", no_server)
    cfg = workdir["root"] / "l_o3.cfg"
    cfg.write_text("l_o = 3\nmax_count = 3\nlambda_mmr = 0.0\n", encoding="utf-8")
    rc = cli.main([command, "--ckpt", str(workdir["ckpt"]), "--config", str(cfg),
                   "--data", str(workdir["data"])])
    assert rc == 2
    assert "config error: l_o" in capsys.readouterr().err


def test_config_queue_key_differing_from_checkpoint_is_config_error(workdir, capsys):
    cfg = workdir["root"] / "queue.cfg"
    cfg.write_text("queue.pay = ctr_cvr:2.0\n", encoding="utf-8")
    rc = cli.main(["bench", "--ckpt", str(workdir["ckpt"]), "--config", str(cfg)])
    assert rc == 2
    assert "config error: queue.pay" in capsys.readouterr().err


def test_config_matching_checkpoint_engine_is_accepted(workdir, capsys):
    # Equal engine values, sim./train. keys, and the option keys all pass.
    doc, engine, _ = _request_doc(workdir)
    req = workdir["root"] / "request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    cfg = workdir["root"] / "same.cfg"
    cfg.write_text(SMALL_CONFIG_TEXT + "bench.slates = 2\neval.pools = 3\nalpha = 2.0\n",
                   encoding="utf-8")
    rc = cli.main(["rerank", "--ckpt", str(workdir["ckpt"]), "--config", str(cfg),
                   "--data", str(req)])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["item_ids"]) == engine.l_o


def test_evaluate_curves_end_at_each_slates_combined_value(workdir):
    # The curves are `values.value_curves`, unclipped, the calculus that
    # generation optimises: over one pool, each method's curves are its
    # slate's value curves, and its combined curve ends at the slate's own
    # value, bit for bit.
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    catalog = simulator.read_catalog(workdir["data"].with_suffix(".catalog.jsonl"))
    weights = ObjectiveWeights()
    vm = generation.ValueModel(engine, params)
    for seed in range(20):
        curves = cli.evaluate_curves(engine, weights, params, catalog, 1, seed)
        rng = np.random.default_rng(seed)
        user = simulator.sample_user(rng, engine.d_user)
        features = simulator.sample_pool(catalog, engine.l_s, rng)
        slates = cli._method_slates(engine, weights, vm, features, user)
        rows = np.array(list(slates.values()))
        click, pay = sortmodel.infer(vm.weights, features.emb[rows],
                                     np.stack([user.user_features] * len(rows)),
                                     features.score[rows])
        want = values.value_curves(click, pay, features.price[rows], weights)
        ends = vm.pool_values(features, rows, user, weights)
        for i, method in enumerate(slates):
            for k, curve in want.items():
                assert np.array_equal(curves[method][k], curve[i]), (method, k)
            assert curves[method]["combined"][-1] == ends[i], method


def test_evaluate_command_table_shape(workdir, capsys):
    out_path = workdir["root"] / "curves.tsv"
    rc = cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]),
                   "--data", str(workdir["data"]), "--pools", "10",
                   "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    # header + 4 methods x 4 objectives x l_o positions
    assert len(lines) == 1 + 4 * 4 * 4
    rows = [ln.split("\t") for ln in lines[1:]]
    by_series = {}
    for method, obj, pos, val in rows:
        by_series.setdefault((method, obj), []).append((int(pos), float(val)))
    for series in by_series.values():
        vals = [v for _, v in sorted(series)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bench_command_reports_ratio(workdir, capsys):
    rc = cli.main(["bench", "--ckpt", str(workdir["ckpt"]), "--slates", "5",
                   "--overhead-us", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median ratio" in out and "overhead ratio" in out
    ref_line = next(ln for ln in out.splitlines() if ln.startswith("reference:"))
    gen_line = next(ln for ln in out.splitlines() if ln.startswith("generate:"))
    assert "invocations=12" in ref_line  # 3 queues x l_o=4
    assert "invocations=4" in gen_line or "invocations=3" in gen_line \
        or "invocations=2" in gen_line or "invocations=1" in gen_line


def test_bench_summarises_every_slate(monkeypatch):
    # At this config the reference makes 14 to 20 model calls a slate: the
    # report gives the median count, and the overhead of the mean count,
    # not the first slate's count.
    engine = EngineConfig(l_s=14, l_o=10)
    counts = {"generate": [], "reference": []}
    for name, key in (("generate", "generate"), ("generate_iterative_reference", "reference")):
        def counted(*args, _fn=getattr(generation, name), _key=key, **kwargs):
            trace = _fn(*args, **kwargs)
            counts[_key].append(trace.invocations)
            return trace
        monkeypatch.setattr(generation, name, counted)
    report = cli.run_bench(engine, ObjectiveWeights(), sortmodel.init_params(engine, seed=3),
                           simulator.catalog_table(100, 8, 8, 1), slates=30,
                           overhead_us=1000.0, seed=0)
    assert len(set(counts["reference"])) > 1
    for key, seen in counts.items():
        assert len(seen) == 30
        assert report[key]["invocations"] == np.median(seen)
        assert report[key]["overhead_ms"] == pytest.approx(np.mean(seen))
    assert report["overhead_ratio"] == pytest.approx(np.mean(counts["reference"])
                                                     / np.mean(counts["generate"]))


def test_oracle_command(workdir, capsys):
    rc = cli.main(["oracle", "--ckpt", str(workdir["ckpt"]), "--pools", "5",
                   "--small-ls", "6", "--small-lo", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "never exceeds 1" in out


def _count_of_zero(workdir, tmp_path, capsys, command, option,
                   value: str = "0") -> tuple[int, str]:
    """cli.main's exit code and stderr for `command` with `value` (a count of
    0 by default) given by `option`: a flag (--pools) or a config key
    (eval.pools)."""
    argv = [command, "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"])]
    if option.startswith("--"):
        argv += [option, value]
    else:
        cfg = tmp_path / "count.cfg"
        cfg.write_text(f"{option} = {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    return cli.main(argv), capsys.readouterr().err


@pytest.mark.parametrize("option", ["--pools", "eval.pools"])
def test_evaluate_with_no_pools_is_a_config_error(workdir, tmp_path, capsys, option):
    assert _count_of_zero(workdir, tmp_path, capsys, "evaluate", option) == (
        2, f"config error: {option} must be >= 1, got 0\n")


@pytest.mark.parametrize("option", ["--slates", "bench.slates"])
def test_bench_with_no_slates_is_a_config_error(workdir, tmp_path, capsys, option):
    assert _count_of_zero(workdir, tmp_path, capsys, "bench", option) == (
        2, f"config error: {option} must be >= 1, got 0\n")


def test_oracle_with_no_pools_is_a_config_error(workdir, tmp_path, capsys):
    assert _count_of_zero(workdir, tmp_path, capsys, "oracle", "--pools") == (
        2, "config error: --pools must be >= 1, got 0\n")


@pytest.mark.parametrize("option, value, message", [
    ("--small-ls", "0", "must be >= 1, got 0"),
    ("--small-lo", "0", "must be >= 1, got 0"),
    # The checkpoint's l_o is 4: its position table has no fifth row.
    ("--small-lo", "5", "must be <= the checkpoint's l_o 4, got 5"),
], ids=["--small-ls", "--small-lo", "--small-lo-above-l_o"])
def test_oracle_with_an_empty_small_pool_or_slate_is_a_config_error(workdir, tmp_path, capsys,
                                                                   option, value, message):
    assert _count_of_zero(workdir, tmp_path, capsys, "oracle", option, value) == (
        2, f"config error: {option} {message}\n")


def test_evaluate_on_a_catalog_smaller_than_the_pool_is_a_config_error(workdir, tmp_path,
                                                                       capsys):
    # The checkpoint's l_s is 10; this dataset's catalog holds 6 items.
    data = tmp_path / "small.jsonl"
    simulator.write_dataset(simulator.build_dataset(
        EngineConfig(l_s=5, l_o=4, max_count=4), simulator.SimConfig(n_items=6, sessions=3)),
        data)
    assert cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]), "--data", str(data),
                     "--pools", "2"]) == 2
    assert capsys.readouterr().err == ("config error: a pool of 10 items cannot be drawn "
                                       "from a catalog of 6 items\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
@pytest.mark.parametrize("option", ["--overhead-us", "bench.overhead_us"])
def test_bench_with_a_negative_or_nonfinite_overhead_is_a_config_error(workdir, tmp_path,
                                                                      capsys, option, value):
    assert _count_of_zero(workdir, tmp_path, capsys, "bench", option, value) == (
        2, f"config error: {option} must be finite and >= 0, got {float(value)}\n")


def test_seed_option_sets_the_sample_seed(workdir, capsys):
    # The checkpoint's engine seed is 3; --seed replaces it as the sample seed.
    def oracle(*seed):
        assert cli.main(["oracle", "--ckpt", str(workdir["ckpt"]), "--pools", "5",
                         "--small-ls", "6", "--small-lo", "3", *seed]) == 0
        return capsys.readouterr().out

    assert oracle("--seed", "1") != oracle("--seed", "2")
    assert oracle() == oracle("--seed", "3")


def _counting_packs(monkeypatch) -> list:
    """The argument tuples of every `InferenceWeights.from_params` call from now on."""
    packs = []
    pack = sortmodel.InferenceWeights.from_params
    monkeypatch.setattr(sortmodel.InferenceWeights, "from_params",
                        classmethod(lambda cls, *args: packs.append(args) or pack(*args)))
    return packs


@pytest.mark.parametrize("argv", [
    ["evaluate", "--pools", "3"],
    ["bench", "--slates", "3"],
    ["oracle", "--pools", "3", "--small-ls", "6", "--small-lo", "3"],
], ids=["evaluate", "bench", "oracle"])
def test_commands_pack_the_weights_once(workdir, capsys, monkeypatch, argv):
    packs = _counting_packs(monkeypatch)
    assert cli.main([*argv, "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                     "--out", str(workdir["root"] / "curves.tsv")]) == 0
    assert len(packs) == 1


@pytest.mark.parametrize("command", ["rerank", "evaluate", "bench", "oracle", "serve"])
def test_missing_checkpoint_is_an_error(workdir, capsys, command):
    missing = workdir["root"] / "missing.ckpt"
    rc = cli.main([command, "--ckpt", str(missing), "--data", str(workdir["data"])])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint not found: {missing}\n"


@pytest.mark.parametrize("command", ["rerank", "evaluate"])
def test_missing_data_file_is_an_error(workdir, capsys, command):
    missing = workdir["root"] / "missing.json"
    rc = cli.main([command, "--ckpt", str(workdir["ckpt"]), "--data", str(missing)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: data file not found: {missing}\n"


def test_unknown_config_key_returns_config_error_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_uncastable_config_value_returns_config_error_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("l_s = abc\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert "config error: l_s" in capsys.readouterr().err


def test_non_finite_config_weight_returns_config_error_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = nan\n", encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "d.jsonl")])
    assert rc == 2
    assert "config error: alpha: objective weight nan is not finite" in capsys.readouterr().err


def test_zero_heads_in_a_config_file_returns_config_error_code(tmp_path, capsys):
    # Once a ZeroDivisionError traceback from the divisibility rule.
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_heads = 0\n", encoding="utf-8")
    out = tmp_path / "d.jsonl"
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: n_heads must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["sim.n_items = 0", "sim.n_categories = 0",
                                  "sim.sessions = -4", "sim.rho = nan", "sim.kappa = inf"])
def test_out_of_range_sim_value_returns_config_error_code(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "d.jsonl"
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    key, value = line.split(" = ")
    rule = "must be >= " if math.isfinite(float(value)) else "must be finite"
    assert capsys.readouterr().err.startswith(f"config error: {key} {rule}")
    assert not out.exists()


def test_eval_pools_config_key_accepted(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eval.pools = 7\n", encoding="utf-8")
    engine, _, raw = load_config_file(cfg)
    assert raw["eval.pools"] == "7"
    assert isinstance(engine, EngineConfig)


@pytest.fixture(scope="module")
def live_server(workdir):
    server = srv.make_server(str(workdir["ckpt"]), 0, ObjectiveWeights())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _post(url, doc):
    body = json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(url + "/rerank", data=body,
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def test_healthz(live_server, workdir):
    with urllib.request.urlopen(live_server + "/healthz") as resp:
        assert resp.status == 200
        doc = json.loads(resp.read())
    assert doc["status"] == "ok"
    assert len(doc["checkpoint_hash"]) == 64
    _, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    assert doc["config_hash"] == core.config_hash(engine)
    assert doc["param_count"] == sortmodel.expected_param_count(engine)


def test_rerank_endpoint_matches_cli(live_server, workdir, capsys):
    doc, _, _ = _request_doc(workdir, seed=21)
    status, body = _post(live_server, doc)
    assert status == 200
    req = workdir["root"] / "serve_request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["rerank", "--ckpt", str(workdir["ckpt"]), "--data", str(req)]) == 0
    cli_body = json.loads(capsys.readouterr().out)
    assert body["item_ids"] == cli_body["item_ids"]
    assert body["source_queues"] == cli_body["source_queues"]
    assert body["combined_value"] == pytest.approx(cli_body["combined_value"], rel=1e-12)


def test_rerank_endpoint_insufficient_candidates(live_server, workdir):
    doc, _, _ = _request_doc(workdir, n_candidates=2)
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(live_server, doc)
    assert exc.value.code == 400
    assert "insufficient candidates" in json.loads(exc.value.read())["error"]


def test_rerank_endpoint_malformed_candidate_field_path(live_server, workdir):
    doc, _, _ = _request_doc(workdir)
    del doc["candidates"][3]["price"]
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(live_server, doc)
    assert exc.value.code == 400
    assert "candidates[3]" in json.loads(exc.value.read())["error"]


def test_rerank_endpoint_bad_user_width(live_server, workdir):
    doc, _, _ = _request_doc(workdir)
    doc["user"] = doc["user"][:-1]
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(live_server, doc)
    assert exc.value.code == 400
    assert "user: expected" in json.loads(exc.value.read())["error"]


def test_rerank_value_equals_fresh_forward_of_slate(workdir):
    doc, _, _ = _request_doc(workdir, seed=27)
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    user, pool, _, _ = srv.parse_rerank_request(doc, engine)
    weights = ObjectiveWeights()
    reply = srv.rerank(engine, params, user, pool, weights)
    row = {int(item_id): k for k, item_id in enumerate(pool.ids)}
    slate = [row[i] for i in reply["item_ids"]]
    out = sortmodel.forward(engine, params, pool.emb[slate][None], user.user_features[None],
                            pool.score[slate][None])
    fresh = float(values.combined_values_batch(out.click.value, out.pay.value,
                                               pool.price[slate][None], weights)[0])
    assert abs(reply["combined_value"] - fresh) <= 1e-12 * abs(fresh)


def test_rerank_packs_the_pool_once(workdir, monkeypatch):
    doc, engine, params = _request_doc(workdir, seed=27)
    user, items, _, _ = parse_request_reference(doc, engine)
    pack, calls = sortmodel.item_features, []

    def counting(seq):
        calls.append(len(seq))
        return pack(seq)

    monkeypatch.setattr(sortmodel, "item_features", counting)
    srv.rerank(engine, params, user, items, ObjectiveWeights())
    assert calls == [len(items)]


def test_rerank_reply_reuses_the_item_ids(workdir):
    # A reply to a list of Items holds the Items' own id objects, not copies,
    # so replies kept by a caller cost no memory per id.
    doc, engine, params = _request_doc(workdir, seed=28)
    user, items, _, _ = parse_request_reference(doc, engine)
    items = [dataclasses.replace(it, id=10**12 + it.id) for it in items]
    by_id = {it.id: it for it in items}
    reply = srv.rerank(engine, params, user, items, ObjectiveWeights())
    assert len(reply["item_ids"]) == engine.l_o
    assert all(item_id is by_id[item_id].id for item_id in reply["item_ids"])


def test_rerank_reply_lists_have_no_spare_slots(workdir):
    # Nor any for room to grow: at l_o = 10, a list built by appending holds
    # 16 slots.
    _, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    engine = dataclasses.replace(engine, l_o=10)
    doc, _, _ = _request_doc(workdir, seed=28)
    user, items, _, _ = parse_request_reference(doc, engine)
    reply = srv.rerank(engine, sortmodel.init_params(engine, seed=0), user, items,
                       ObjectiveWeights())
    exact = sys.getsizeof([0] * engine.l_o)
    assert sys.getsizeof(reply["item_ids"]) == sys.getsizeof(reply["source_queues"]) == exact


# A loaded checkpoint is packed once (`model.packed_weights`): the packing is
# reused while the config and every parameter array are the same immutable
# objects as when it was made.


def _body(reply) -> str:
    """A reply without its latency, as the bytes that are compared."""
    return json.dumps([reply["item_ids"], reply["source_queues"], repr(reply["combined_value"])])


def _parsed(workdir, engine, seed):
    doc, _, _ = _request_doc(workdir, seed=seed)
    return srv.parse_rerank_request(doc, engine)[:2]


def test_rerank_packs_a_loaded_checkpoint_once(workdir, monkeypatch):
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    user, pool = _parsed(workdir, engine, seed=27)
    packs = _counting_packs(monkeypatch)
    first = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    second = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    assert len(packs) == 1
    assert _body(first) == _body(second)


def test_replacing_a_parameter_array_repacks(workdir, monkeypatch):
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    user, pool = _parsed(workdir, engine, seed=27)
    packs = _counting_packs(monkeypatch)
    before = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    p = params["head_pay.b2"]
    p.value = p.value + 1
    after = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    assert len(packs) == 2
    assert after["combined_value"] != before["combined_value"]


def test_writable_parameters_are_packed_on_every_call(workdir, monkeypatch):
    _, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    params = sortmodel.init_params(engine, seed=5)
    user, pool = _parsed(workdir, engine, seed=27)
    packs = _counting_packs(monkeypatch)
    before = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    srv.rerank(engine, params, user, pool, ObjectiveWeights())
    assert len(packs) == 2
    params["head_pay.b2"].value[...] += 1.0  # written in place, as a caller may
    after = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    assert len(packs) == 3
    assert after["combined_value"] != before["combined_value"]
    copies = {name: sortmodel.Var(p.value.copy()) for name, p in params.items()}
    assert _body(after) == _body(srv.rerank(engine, copies, user, pool, ObjectiveWeights()))


def test_a_loaded_array_cannot_be_made_writable_again(workdir):
    # Its packing would be reused after a write.
    params, _ = sortmodel.load_checkpoint(workdir["ckpt"])
    for p in params.values():
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
            p.value.flags.writeable = True


def test_a_caller_frozen_array_written_between_calls_is_repacked(workdir, monkeypatch):
    # A caller may make an array it froze writable again, so only immutable
    # arrays keep their packing.
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    user, pool = _parsed(workdir, engine, seed=27)
    b2 = params["head_pay.b2"].value.copy()
    b2.flags.writeable = False
    params["head_pay.b2"].value = b2
    packs = _counting_packs(monkeypatch)
    before = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    b2.flags.writeable = True
    b2 += 1.0
    b2.flags.writeable = False
    after = srv.rerank(engine, params, user, pool, ObjectiveWeights())
    assert len(packs) == 2
    assert after["combined_value"] != before["combined_value"]


def test_replies_from_the_reused_packing_equal_fresh_ones(workdir):
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    copies = {name: sortmodel.Var(p.value.copy()) for name, p in params.items()}
    for seed in range(40, 48):
        user, pool = _parsed(workdir, engine, seed)
        reused = srv.rerank(engine, params, user, pool, ObjectiveWeights())
        fresh = srv.rerank(engine, copies, user, pool, ObjectiveWeights())
        assert _body(reused) == _body(fresh)


def test_concurrent_reranks_share_only_the_packing(workdir, monkeypatch):
    # Threads rerank on one loaded checkpoint: one packing serves them all,
    # each reply equals the serial one, and each request's trace counts its
    # own model invocations, one per two positions.
    params, engine = sortmodel.load_checkpoint(workdir["ckpt"])
    requests = [_parsed(workdir, engine, seed) for seed in range(50, 56)]
    serial = [_body(srv.rerank(engine, params, user, pool, ObjectiveWeights()))
              for user, pool in requests]
    packs, invocations = _counting_packs(monkeypatch), []
    generate = srv.generation.generate

    def counting_generate(*args, **kwargs):
        trace = generate(*args, **kwargs)
        invocations.append(trace.invocations)
        return trace

    monkeypatch.setattr(srv.generation, "generate", counting_generate)
    results, errors = {}, []

    def worker(t):
        try:
            for k in range(len(requests)):
                k = (k + t) % len(requests)
                user, pool = requests[k]
                results[t, k] = _body(srv.rerank(engine, params, user, pool, ObjectiveWeights()))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the NumPy calls' Python code
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 4 * len(requests)
    assert all(body == serial[k] for (_, k), body in results.items())
    assert invocations == [(engine.l_o + 1) // 2] * len(results)
    assert all(n <= engine.l_o for n in invocations)
    assert packs == []


def _wide_request_doc(n, seed=41):
    """A request for the live server's engine with n candidates, more than its
    catalogue holds."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return {"user": [float(v) for v in rng.normal(size=8)],
            "candidates": [{"id": 1000 + i, "emb": [float(v) for v in emb[i]],
                            "price": float(rng.lognormal(3.0, 0.6)),
                            "ctr": float(rng.beta(2, 8)), "cvr": float(rng.beta(2, 10)),
                            "cat": i % 4} for i in range(n)]}


def test_post_rerank_builds_no_item_per_candidate(live_server, workdir, monkeypatch):
    # The handler validates and packs the pool as columns: no Item per
    # candidate, and no item_features call to pack Items.
    made, packed = [], []
    post_init, pack = core.Item.__post_init__, sortmodel.item_features

    def counting_post_init(item):
        made.append(item.id)
        post_init(item)

    def counting_pack(items):
        packed.append(len(items))
        return pack(items)

    monkeypatch.setattr(core.Item, "__post_init__", counting_post_init)
    monkeypatch.setattr(sortmodel, "item_features", counting_pack)
    status, body = _post(live_server, _wide_request_doc(300))
    assert status == 200 and len(body["item_ids"]) == 4
    assert len(made) <= 4 and packed == []


def _malformed(doc, kind):
    if kind == "duplicate_id":
        doc["candidates"][4]["id"] = doc["candidates"][1]["id"]
    elif kind == "lambda_not_number":
        doc["lambda"] = "x"
    elif kind == "lambda_above_one":
        doc["lambda"] = 1.5
    elif kind == "weights_bool":
        doc["weights"] = {"alpha": True, "beta": False, "gamma": False}
    elif kind == "emb_nan":
        doc["candidates"][2]["emb"][0] = float("nan")
    elif kind == "price_nan":
        doc["candidates"][5]["price"] = float("nan")
    elif kind == "price_inf":
        doc["candidates"][5]["price"] = float("inf")
    elif kind == "user_nan":
        doc["user"][3] = float("nan")
    elif kind == "user_inf":
        doc["user"][0] = float("-inf")
    elif kind == "id_outside_int64":
        doc["candidates"][3]["id"] = 2**70
    elif kind == "id_fractional":
        doc["candidates"][6]["id"] = doc["candidates"][6]["id"] + 0.5
    return doc


@pytest.mark.parametrize("kind, fragments", [
    ("duplicate_id", ("candidates[4].id", "duplicate", "candidates[1]")),
    ("lambda_not_number", ("lambda",)),
    ("emb_nan", ("candidates[2]", "embedding", "finite")),
    ("price_nan", ("candidates[5]", "price", "finite")),
    ("price_inf", ("candidates[5]", "price", "finite")),
    ("user_nan", ("user", "finite")),
    ("user_inf", ("user", "finite")),
    ("id_outside_int64", ("candidates[3].id", "int64")),
    ("id_fractional", ("candidates[6].id", "not an integer")),
    ("weights_bool", ("weights.alpha", "true")),
    ("lambda_above_one", ("lambda: outside [0,1]",)),
])
def test_rerank_endpoint_rejects_malformed_field(live_server, workdir, kind, fragments):
    doc, _, _ = _request_doc(workdir, seed=29)
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(live_server, _malformed(doc, kind))
    assert exc.value.code == 400
    error = json.loads(exc.value.read())["error"]
    assert all(f in error for f in fragments), error


@pytest.mark.parametrize("weights, where", [
    ({"alpha": float("nan"), "beta": 1.0, "gamma": 1.0}, "weights.alpha: "),
    ({"alpha": 1.0, "beta": float("inf"), "gamma": 1.0}, "weights.beta: "),
    ({"alpha": 1e308, "beta": 1e308, "gamma": 1e308}, "weights.beta: "),
    ({"alpha": 1.0, "beta": 1.0, "gamma": -1.0}, "weights.gamma: "),
    ({"alpha": 1.0, "beta": 1.0, "gamma": "x"}, "weights.gamma: "),
    ({"alpha": 1.0, "beta": 1.0}, "weights.gamma: missing"),
    ({"alpha": 10**400, "beta": 1.0, "gamma": 1.0}, "weights.alpha: "),
    ({"alpha": 0.0, "beta": 0.0, "gamma": 0.0}, "weights: "),
    ([1.0, 1.0, 1.0], "weights: "),
])
def test_rerank_endpoint_names_the_faulty_weight(live_server, workdir, weights, where):
    # json.loads reads the NaN and Infinity tokens, so they reach the weights.
    doc, _, _ = _request_doc(workdir, seed=31)
    doc["weights"] = weights
    with pytest.raises(urllib.error.HTTPError) as exc:
        _post(live_server, doc)
    assert exc.value.code == 400
    assert json.loads(exc.value.read())["error"].startswith(where)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_reply_value_gets_json_500(live_server, workdir):
    # Finite weights whose combined value overflows: the reply would carry a
    # bare Infinity token, which is not JSON.
    doc, _, _ = _request_doc(workdir, seed=32)
    doc["weights"] = {"alpha": 0.0, "beta": 0.0, "gamma": 1.5e308}
    body = json.dumps(doc).encode("utf-8")
    status, reply = _raw_post(live_server, b"Content-Length: %d" % len(body), body)
    assert status == 500
    assert reply == {"error": "internal error: combined_value is not finite"}


def test_rerank_endpoint_invalid_json_body(live_server):
    req = urllib.request.Request(live_server + "/rerank", data=b"{not json",
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req)
    assert exc.value.code == 400


def test_concurrent_identical_requests_identical(live_server, workdir):
    doc, _, _ = _request_doc(workdir, seed=33)
    results = [None] * 6
    errors = []

    def worker(i):
        try:
            results[i] = _post(live_server, doc)[1]
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    first = results[0]
    for other in results[1:]:
        assert other["item_ids"] == first["item_ids"]
        assert other["source_queues"] == first["source_queues"]
        assert other["combined_value"] == pytest.approx(first["combined_value"],
                                                        rel=1e-12)


def _bad_checkpoint(tmp_path, damage):
    config = EngineConfig(l_s=10, l_o=4, max_count=4, d_model=16, n_layers=1, n_heads=2)
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, sortmodel.init_params(config), config)
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc["params"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _scale_qk(params, factor=100.0):
    """Layer 0's Wq and Wk entries times `factor`: its heads' attention-logit
    bounds times factor squared, past model.SHIFT_LIMIT."""
    for name in ("layer0.attn.Wq", "layer0.attn.Wk"):
        params[name]["data"] = [repr(float(v) * factor) for v in params[name]["data"]]


@pytest.mark.parametrize("damage, name", [
    (lambda params: params.pop("layer0.ffn.W2"), "layer0.ffn.W2"),
    (lambda params: params.update({"layer9.ffn.W2": params["layer0.ffn.W2"]}), "layer9.ffn.W2"),
    (lambda params: params["layer0.ffn.W2"].update(shape=[16, 64]), "layer0.ffn.W2"),
    (lambda params: params["proj.W"]["data"].__setitem__(5, "nan"), "proj.W.*non-finite"),
    (_scale_qk, "^layer 0 head 0: attention logit bound"),
], ids=["missing", "extra", "misshaped", "non_finite", "logit_bound"])
def test_make_server_rejects_bad_checkpoint(tmp_path, damage, name):
    # A damaged checkpoint fails the server at start, not on its first request.
    with pytest.raises(ConfigError, match=name):
        srv.make_server(str(_bad_checkpoint(tmp_path, damage)), 0)


def test_serve_command_refuses_a_checkpoint_that_packing_refuses(tmp_path, capsys, monkeypatch):
    # The checkpoint loads, but its attention logits are unbounded for the
    # packed softmax: `sortgen serve` exits with the config error at start.
    def no_serving(self, *args, **kwargs):
        raise AssertionError("served a checkpoint that packing refuses")

    monkeypatch.setattr(srv.RerankServer, "serve_forever", no_serving)
    path = _bad_checkpoint(tmp_path, _scale_qk)
    sortmodel.load_checkpoint(path)
    assert cli.main(["serve", "--ckpt", str(path), "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: layer 0 head 0: attention logit bound")


def _malformed_checkpoint(tmp_path, kind):
    config = EngineConfig(l_s=10, l_o=4, max_count=4, d_model=16, n_layers=1, n_heads=2)
    path = tmp_path / "model.ckpt"
    sortmodel.save_checkpoint(path, sortmodel.init_params(config), config)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if kind == "invalid_config":
        doc["config"].update(d_model=8, n_heads=3)
    elif kind == "zero_heads":
        doc["config"]["n_heads"] = 0
    elif kind == "no_config_hash":
        del doc["config_hash"]
    elif kind == "no_queue_specs":
        del doc["config"]["queue_specs"]
    elif kind == "unknown_config_key":
        doc["config"]["d_modle"] = 16
    elif kind == "non_numeric_value":
        doc["params"]["proj.W"]["data"][3] = "abc"
    path.write_text("not a checkpoint" if kind == "not_json" else json.dumps(doc),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("kind, name", [
    ("not_json", "not a JSON document"),
    ("no_config_hash", "config_hash"),
    ("no_queue_specs", "queue_specs"),
    ("unknown_config_key", "d_modle"),
    ("non_numeric_value", "proj.W.*abc"),
    ("invalid_config", "d_model not divisible by n_heads"),
    ("zero_heads", "^checkpoint: n_heads must be positive$"),
])
def test_malformed_checkpoint_is_a_config_error(tmp_path, capsys, kind, name):
    path = _malformed_checkpoint(tmp_path, kind)
    with pytest.raises(ConfigError, match=name):
        sortmodel.load_checkpoint(path)
    assert cli.main(["oracle", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_make_server_rejects_an_invalid_checkpoint_config(tmp_path):
    # d_model=8 with n_heads=3 used to load and serve, and fail on each request.
    with pytest.raises(ConfigError, match="n_heads"):
        srv.make_server(str(_malformed_checkpoint(tmp_path, "invalid_config")), 0)


def _raw_post(url, head: bytes, body: bytes = b"") -> tuple[int, dict]:
    """POST /rerank over a plain socket; returns the status and the reply body."""
    host, port = url.rpartition("//")[2].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as conn:
        conn.sendall(b"POST /rerank HTTP/1.1\r\nHost: localhost\r\n" + head
                     + b"\r\n\r\n" + body)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def test_content_length_above_the_cap_gets_400(live_server):
    # Rejected from the header alone: no body is sent, and none is waited for.
    status, doc = _raw_post(live_server, b"Content-Length: %d" % (srv.MAX_BODY_BYTES + 1))
    assert status == 400
    assert doc["error"].startswith("Content-Length:") and "limit" in doc["error"]


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_bad_content_length_gets_400(live_server, length):
    # A negative length must not reach rfile.read, which would then wait for EOF
    # and leave the client with no reply.
    status, doc = _raw_post(live_server, b"Content-Length: " + length)
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_body_not_utf8_gets_400(live_server):
    body = b'{"user": "\xff"}'
    status, doc = _raw_post(live_server, b"Content-Length: %d" % len(body), body)
    assert status == 400
    assert doc["error"].startswith("body: invalid document")


def test_a_stalled_body_gets_a_json_408_while_others_are_served(workdir, monkeypatch):
    # A body that stops short of its Content-Length gets a 408 once the socket
    # timeout passes, not a held thread, and a second connection is served
    # while the first one stalls.
    monkeypatch.setattr(srv, "SOCKET_TIMEOUT_S", 0.5)
    server = srv.make_server(str(workdir["ckpt"]), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address, timeout=10) as stalled:
            start = time.monotonic()
            stalled.sendall(b"POST /rerank HTTP/1.1\r\nHost: localhost\r\n"
                            b"Content-Length: 100\r\n\r\n" + b'{"user": ')
            other_status, other = _post(f"http://127.0.0.1:{server.server_address[1]}",
                                        _request_doc(workdir)[0])
            reply = b""
            while chunk := stalled.recv(65536):
                reply += chunk
            elapsed = time.monotonic() - start
    finally:
        server.shutdown()
        server.server_close()
    assert other_status == 200 and len(other["item_ids"]) == 4
    status_line, _, rest = reply.partition(b"\r\n")
    doc = json.loads(rest.partition(b"\r\n\r\n")[2])
    assert int(status_line.split()[1]) == 408
    assert doc["error"].startswith("body:") and "connection closed" in doc["error"]
    assert 0.5 <= elapsed < 0.5 + 5.0, elapsed


@pytest.fixture
def stalling_server(workdir, monkeypatch):
    """A live server whose socket timeout is 0.5 s; yields its address."""
    monkeypatch.setattr(srv, "SOCKET_TIMEOUT_S", 0.5)
    server = srv.make_server(str(workdir["ckpt"]), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()


def _sent_then_silent(address, sent: bytes) -> tuple[bytes, float]:
    """Everything the server sends back to `sent`, until it closes the
    connection, and the seconds that took."""
    with socket.create_connection(address, timeout=10) as conn:
        start = time.monotonic()
        conn.sendall(sent)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
        return reply, time.monotonic() - start


@pytest.mark.parametrize("sent, part", [(b"POST /rer", "request line"),
                                        (b"POST /rerank HTTP/1.1\r\nHost: x\r\n", "headers")])
def test_a_stall_in_the_request_line_or_headers_gets_a_json_408(stalling_server, sent, part):
    reply, elapsed = _sent_then_silent(stalling_server, sent)
    status_line, _, rest = reply.partition(b"\r\n")
    doc = json.loads(rest.partition(b"\r\n\r\n")[2])
    assert int(status_line.split()[1]) == 408
    assert doc["error"].startswith(f"{part}:") and "connection closed" in doc["error"]
    assert 0.5 <= elapsed < 0.5 + 5.0, elapsed


def test_a_connection_that_sends_nothing_is_closed_without_a_reply(stalling_server):
    reply, elapsed = _sent_then_silent(stalling_server, b"")
    assert reply == b""
    assert 0.5 <= elapsed < 0.5 + 5.0, elapsed


def test_internal_fault_gets_json_500(workdir, capfd):
    server = srv.make_server(str(workdir["ckpt"]), 0)
    server.RequestHandlerClass.state.params = {}  # every forward now fails with KeyError
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps(_request_doc(workdir)[0]).encode("utf-8")
        status, doc = _raw_post(f"http://127.0.0.1:{server.server_address[1]}",
                                b"Content-Length: " + str(len(body)).encode(), body)
    finally:
        server.shutdown()
        server.server_close()
    assert status == 500
    assert doc["error"].startswith("internal error: KeyError")
    # The handler logs the traceback of the fault this test provokes.
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "\nKeyError: " in err


@contextmanager
def _serving(workdir, monkeypatch):
    """A live server whose do_POST records the thread that runs it; yields
    the server and that list of threads, and shuts down and closes the server
    on exit."""
    served_by = []
    post = srv.RerankHandler.do_POST

    def recording_post(handler):
        served_by.append(threading.current_thread())
        post(handler)

    monkeypatch.setattr(srv.RerankHandler, "do_POST", recording_post)
    server = srv.make_server(str(workdir["ckpt"]), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, served_by
    finally:
        server.shutdown()
        server.server_close()


def _rerank_over_socket(server, workdir, doc=None) -> tuple[int, dict]:
    """One POST /rerank (a valid one by default); returns once the server has
    closed the connection."""
    body = json.dumps(_request_doc(workdir)[0] if doc is None else doc).encode("utf-8")
    return _raw_post(f"http://127.0.0.1:{server.server_address[1]}",
                     b"Content-Length: %d" % len(body), body)


def _stall_in_body(address) -> socket.socket:
    """A connection whose request stops one byte into a 100-byte body."""
    conn = socket.create_connection(address, timeout=10)
    conn.sendall(b"POST /rerank HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{")
    return conn


def _until(condition) -> None:
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_consecutive_requests_are_served_by_one_handler_thread(workdir, monkeypatch):
    with _serving(workdir, monkeypatch) as (server, served_by):
        for _ in range(3):
            assert _rerank_over_socket(server, workdir)[0] == 200
    assert len(served_by) == 3
    assert served_by[1] is served_by[0] and served_by[2] is served_by[0]


def test_server_close_joins_the_handler_threads(workdir, monkeypatch):
    # One handler thread is idle and one still holds a stalled connection
    # when the server closes; server_close waits for both to end.
    monkeypatch.setattr(srv, "SOCKET_TIMEOUT_S", 1.0)
    with _serving(workdir, monkeypatch) as (server, served_by):
        stalled = _stall_in_body(server.server_address)
        _until(lambda: len(served_by) == 1)
        assert _rerank_over_socket(server, workdir)[0] == 200
    stalled.close()
    assert len(set(served_by)) == 2
    assert not any(thread.is_alive() for thread in served_by)


def test_a_connection_past_the_handler_cap_gets_a_json_503(workdir, monkeypatch):
    # Two connections stall mid-body and hold both handler threads; a third
    # gets a 503 naming the cap and is closed, and so does a fourth that
    # sends a large body, which the server never reads. Once the stalls time
    # out, a request is served again.
    monkeypatch.setattr(srv, "MAX_HANDLERS", 2)
    monkeypatch.setattr(srv, "SOCKET_TIMEOUT_S", 1.0)
    busy = {"error": "server busy: all 2 handler threads (MAX_HANDLERS) are serving other "
                     "connections; connection closed"}
    with _serving(workdir, monkeypatch) as (server, served_by):
        stalled = [_stall_in_body(server.server_address) for _ in range(2)]
        _until(lambda: len(served_by) == 2)
        reply, elapsed = _sent_then_silent(server.server_address,
                                           b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        status_line, _, rest = reply.partition(b"\r\n")
        assert int(status_line.split()[1]) == 503
        assert json.loads(rest.partition(b"\r\n\r\n")[2]) == busy
        assert elapsed < 1.0
        with pytest.raises(urllib.error.HTTPError) as refused:
            _post(f"http://127.0.0.1:{server.server_address[1]}",
                  {"user": [0.0] * 8, "pad": "x" * 100_000})
        with refused.value:
            assert refused.value.code == 503 and json.loads(refused.value.read()) == busy
        for conn in stalled:
            with conn:
                assert conn.recv(65536).startswith(b"HTTP/1.0 408 ")
        assert _rerank_over_socket(server, workdir)[0] == 200
    assert len(set(served_by)) == 2


def test_concurrent_connections_leave_every_handler_thread_idle(workdir, monkeypatch):
    # Four clients against two handler threads, with frequent thread switches:
    # each reply is a 200 or a 503, and once every connection has closed each
    # started thread counts as idle, which a lost update of the count breaks.
    monkeypatch.setattr(srv, "MAX_HANDLERS", 2)
    statuses, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _serving(workdir, monkeypatch) as (server, _):
            def client():
                for _ in range(5):
                    reply, _ = _sent_then_silent(server.server_address,
                                                 b"GET /healthz HTTP/1.0\r\n\r\n")
                    statuses.append(int(reply.split()[1]))

            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            assert server._idle == len(server._handlers) <= 2
    finally:
        sys.setswitchinterval(interval)
    assert len(statuses) == 20 and set(statuses) <= {200, 503} and 200 in statuses


def test_closed_loop_clients_start_no_more_handler_threads_than_clients(workdir, monkeypatch):
    # Each client reconnects as soon as it has read its reply by its
    # Content-Length, which can be before the server has closed the last
    # connection. A thread counted idle only after its reply's flush would be
    # missed by such a reconnect, and a new thread started.
    statuses = []
    with _serving(workdir, monkeypatch) as (server, _):
        def client():
            for _ in range(300):
                conn = http.client.HTTPConnection(*server.server_address, timeout=10)
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                reply.read()
                statuses.append(reply.status)
                conn.close()

        clients = [threading.Thread(target=client) for _ in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in clients)
        assert len(server._handlers) <= 2
    assert statuses == [200] * 600


@pytest.mark.parametrize("valid", [True, False], ids=["200", "400"])
def test_a_reply_leaves_in_one_socket_write(workdir, monkeypatch, valid):
    writes = []
    with _serving(workdir, monkeypatch) as (server, _):
        port = server.server_address[1]
        for name in ("send", "sendall"):
            def counting(sock, data, *args, _write=getattr(socket.socket, name)):
                if sock.getsockname()[1] == port:  # the server's end of a connection
                    writes.append(bytes(data))
                return _write(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        status, doc = _rerank_over_socket(server, workdir, None if valid else {})
    assert status == (200 if valid else 400)
    assert len(writes) == 1
    head, _, body = writes[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 %d " % status)
    assert b"\r\nContent-Length: %d\r\n" % len(body) in head + b"\r\n"
    assert json.loads(body) == doc
