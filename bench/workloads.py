"""The three workloads: in-process rerank, HTTP serve, and train.

Each returns a dict with the operations attempted and failed, the end-to-end
metrics, the per-layer metrics when traced, and the failed checks.
"""

from __future__ import annotations

import http.client
import json
import math
import subprocess
import sys
import time

import numpy as np

import common
import reference
import spans
from common import OUT_DIR, Checks, median

SETUP_REPEATS = {"rerank": 5, "serve": 3, "train": 3}

RERANK_REQUESTS = 64      # distinct requests in one rerank round
RERANK_CATALOG = 1000
RERANK_WARMUP = 16
RERANK_REFERENCE_SAMPLE = 16  # requests replayed through the reference per run

SERVE_POOL = 300          # candidates per serve request
SERVE_CATALOG = 2000
SERVE_RATE = 24.0         # requests per second offered by the open loop
SERVE_ROUND = 100         # requests per round, malformed ones included
SERVE_WARMUP = 20
SERVE_REFERENCE_SAMPLE = 8
SERVE_PROBE_SLACK_S = 0.015  # idle time before the next due request that a kernel sample needs

# The served checkpoint is scored on one fixed set of simulated sessions, so
# its eval_loss moves only when the served model's numerics move.
EVAL_SESSIONS = 512
EVAL_SEED = 0

TRAIN_SESSIONS = 2000
# The simulated world and its sessions are fixed; --seed sets the parameter
# init and the batch order. Across simulated worlds the best eval loss moves
# ~5% (IQR over 8 seeds), across inits and orders ~0.4%.
TRAIN_WORLD_SEED = 0
TRAIN_EPOCHS = 2
TRAIN_BATCH = 64


def _engine():
    from sortgen.core import EngineConfig
    return EngineConfig()


def _served_checkpoint(name: str):
    """Write the fixed-seed init_params checkpoint that rerank and serve use."""
    from sortgen import model
    config = _engine()
    path = OUT_DIR / f"{name}.ckpt"
    OUT_DIR.mkdir(exist_ok=True)
    model.save_checkpoint(path, model.init_params(config, seed=common.CHECKPOINT_SEED), config)
    return path


def served_eval_loss(ckpt_path, chunk: int = 32) -> float:
    """Mean ordered-regression loss of the served checkpoint on simulated
    sessions, in small batches so it does not raise the peak RSS."""
    from sortgen import model, simulator, values
    params, config = model.load_checkpoint(ckpt_path)
    sim = simulator.SimConfig(sessions=EVAL_SESSIONS, seed=EVAL_SEED)
    samples = simulator.build_dataset(config, sim).samples
    total = 0.0
    for start in range(0, len(samples), chunk):
        part = samples[start:start + chunk]
        emb = np.stack([[it.embedding for it in s.items] for s in part])
        score = np.array([[[it.prior_ctr, it.prior_cvr] for it in s.items] for s in part])
        user = np.stack([s.user.user_features for s in part])
        clicks = np.cumsum([s.labels.clicks for s in part], axis=1)
        pays = np.cumsum([s.labels.pays for s in part], axis=1)
        out = model.forward(config, params, emb, user, score)
        total += float(values.ordered_regression_loss(out, clicks, pays).value) * len(part)
    return total / len(samples)


def _weights_tuple(weights):
    return (weights.alpha, weights.beta, weights.gamma)


def _time_metrics(timings, probe) -> tuple[dict, dict]:
    """Host-speed-scaled time metrics, and the raw ones with the kernel times."""
    raw = timings.summary(scaled=False)
    raw["kernel_ms_median"] = median(probe.kernel_ms)
    raw["kernel_samples"] = len(probe.kernel_ms)
    return timings.summary(), raw


def _series(timings, probe) -> dict:
    """Per-sample figures, kept in the run's record file for later analysis."""
    return {"latency_ms": [x for x, _ in timings.latency_ms],
            "scale": [f for _, f in timings.latency_ms], "kernel_ms": probe.kernel_ms}


# -------------------------------- rerank -------------------------------------


def run_rerank(seed: int, seconds: float, traced: bool) -> dict:
    from sortgen import model, server
    from sortgen.core import ObjectiveWeights, UserContext

    config = _engine()
    ckpt_path = _served_checkpoint("rerank")
    eval_loss = served_eval_loss(ckpt_path)
    requests = common.make_requests(seed, RERANK_REQUESTS, config.l_s, RERANK_CATALOG)
    inputs = [(UserContext(u), common.to_items(pool)) for u, pool in requests]
    weights = ObjectiveWeights()

    probe, timings, replies = common.SpeedProbe(), common.Timings(), []
    tracer = spans.Tracer() if traced else None
    undo = spans.install(tracer) if traced else []
    try:
        def set_up():
            params, cfg = model.load_checkpoint(ckpt_path)
            server.rerank(cfg, params, *inputs[0], weights)
            return params, cfg

        for _ in range(SETUP_REPEATS["rerank"]):
            (params, cfg), secs, scale = probe.bracket(set_up)
            timings.setup_s.append((secs, scale))
        for user, items in inputs[:RERANK_WARMUP]:
            server.rerank(cfg, params, user, items, weights)
        if tracer:
            tracer.new_record()

        def one_round():
            latencies = []
            for k, (user, items) in enumerate(inputs):
                t0 = time.perf_counter_ns()
                reply = server.rerank(cfg, params, user, items, weights)
                latencies.append((time.perf_counter_ns() - t0) / 1e6)
                replies.append((k, reply))
            return latencies

        start = time.perf_counter()
        while not timings.per_s or time.perf_counter() - start < seconds:
            latencies, secs, scale = probe.bracket(one_round)
            timings.latency_ms += [(ms, scale) for ms in latencies]
            timings.per_s.append((len(inputs) / secs, scale))
    finally:
        spans.uninstall(undo)

    checks = Checks()
    ref = reference.load_checkpoint(ckpt_path)
    queues = [reference.dfs_queues(pool, ref.config["queue_specs"], config.l_o)
              for _, pool in requests]
    first = {}
    for k, reply in replies:
        common.check_reply(checks, f"request {k}", reply, requests[k][1], queues[k], config.l_o)
        body = (reply["item_ids"], reply["source_queues"], reply["combined_value"])
        checks.require(first.setdefault(k, body) == body, f"request {k}: reply changed between rounds")
    for k in range(RERANK_REFERENCE_SAMPLE):
        user, pool = requests[k]
        expected = reference.rerank(ref, user, pool, _weights_tuple(weights))
        common.check_against_reference(checks, f"request {k}", replies[k][1], expected)

    metrics, raw = _time_metrics(timings, probe)
    result = {
        "attempted": len(replies),
        "failed": 0,
        "checks": checks,
        "metrics": {**metrics, "peak_rss_mb": common.peak_rss_mb(), "eval_loss": eval_loss},
        "raw": raw,
        "series": _series(timings, probe),
        "samples": len(timings.latency_ms),
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.records[1:], tracer.records[:1],
                                               per=len(replies))
    return result


# --------------------------------- serve -------------------------------------

# Malformed requests, built from inputs that do not depend on --seed. Each
# succeeds only as a 400 whose error names every listed fragment.
MALFORMED = {
    # Control: a missing field is caught by parse_rerank_request today.
    "missing_price": ("candidates[5]", "price"),
    # float(doc["lambda"]) sits outside the try block: the handler raises.
    "lambda_not_number": ("lambda",),
    # A NaN user feature reaches model.forward, which raises FloatingPointError.
    "user_not_finite": ("user",),
    # A NaN price passes Item validation and yields combined_value NaN.
    "price_not_finite": ("candidates[7]", "price"),
}
MALFORMED_SLOTS = (24, 49, 74, 99)  # their places within every round
MALFORMED_SEED = 0


def _malformed_bodies() -> list[tuple[str, bytes]]:
    (user, pool), = common.make_requests(MALFORMED_SEED, 1, SERVE_POOL, SERVE_CATALOG)
    out = []
    for kind in MALFORMED:
        doc = common.request_doc(user, pool)
        if kind == "missing_price":
            del doc["candidates"][5]["price"]
        elif kind == "lambda_not_number":
            doc["lambda"] = "x"
        elif kind == "user_not_finite":
            doc["user"][3] = math.nan
        elif kind == "price_not_finite":
            doc["candidates"][7]["price"] = math.nan
        out.append((kind, json.dumps(doc).encode("utf-8")))
    return out


def _post(port: int, path: str, body: bytes | None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (http.client.HTTPException, OSError) as exc:
        return None, repr(exc).encode("utf-8")
    finally:
        conn.close()


class Service:
    """One service process, from spawn to the first 200 from /healthz."""

    def __init__(self, ckpt_path, traced: bool, log):
        self.totals_path = OUT_DIR / "service-totals.json"
        self.totals_path.unlink(missing_ok=True)
        start = time.perf_counter()
        cmd = [sys.executable, str(common.BENCH_DIR / "service.py"), "--ckpt", str(ckpt_path),
               "--totals", str(self.totals_path)] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, cwd=common.REPO_ROOT)
        try:
            line = self.proc.stdout.readline()
            if not line.strip():
                raise RuntimeError("service exited before binding a port")
            self.port = int(line)
            deadline = time.perf_counter() + 60
            while _post(self.port, "/healthz", None)[0] != 200:
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("service did not become healthy")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> dict:
        """Close stdin, wait for the process, and return what it wrote."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.totals_path.exists():
            raise RuntimeError(f"service exited with code {self.proc.returncode}")
        return json.loads(self.totals_path.read_text(encoding="utf-8"))


def run_serve(seed: int, seconds: float, traced: bool) -> dict:
    from sortgen.core import ObjectiveWeights

    config = _engine()
    ckpt_path = _served_checkpoint("serve")
    eval_loss = served_eval_loss(ckpt_path)
    requests = common.make_requests(seed, SERVE_ROUND - len(MALFORMED_SLOTS), SERVE_POOL,
                                    SERVE_CATALOG)
    bodies = [json.dumps(common.request_doc(u, pool)).encode("utf-8") for u, pool in requests]
    malformed = _malformed_bodies()
    layout, k = [], 0  # one round: (request index or None, malformed kind, body)
    for slot in range(SERVE_ROUND):
        if slot in MALFORMED_SLOTS:
            kind, body = malformed[MALFORMED_SLOTS.index(slot)]
            layout.append((None, kind, body))
        else:
            layout.append((k, None, bodies[k]))
            k += 1
    rounds = max(1, round(seconds * SERVE_RATE / SERVE_ROUND))  # whole rounds only
    schedule = layout * rounds

    probe, timings = common.SpeedProbe(), common.Timings()
    sent = []  # (due, send, done, status, data) per scheduled request
    round_kernels = [[] for _ in range(rounds)]  # kernel samples taken in idle gaps
    with open(OUT_DIR / "service.log", "ab") as log:
        service = None
        try:
            for i in range(SETUP_REPEATS["serve"]):
                service, secs, scale = probe.bracket(lambda: Service(ckpt_path, traced, log))
                timings.setup_s.append((secs, scale))
                if i + 1 < SETUP_REPEATS["serve"]:
                    service.stop()
                    service = None
            for body in bodies[:SERVE_WARMUP]:
                _post(service.port, "/rerank", body)

            interval = 1.0 / SERVE_RATE
            origin = time.perf_counter() + 0.01
            for i, (_, _, body) in enumerate(schedule):
                due = origin + i * interval
                if due - time.perf_counter() > SERVE_PROBE_SLACK_S:
                    round_kernels[i // SERVE_ROUND].append(probe.sample())
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send = time.perf_counter()
                status, data = _post(service.port, "/rerank", body)
                sent.append((due, send, time.perf_counter(), status, data))
        finally:
            totals = service.stop() if service else {}

    checks = Checks()
    ref = reference.load_checkpoint(ckpt_path)
    queues = [reference.dfs_queues(pool, ref.config["queue_specs"], config.l_o)
              for _, pool in requests]
    client_ms, wait_ms, lag_ms, failed, failed_kinds = [], [], [], 0, set()
    checked = set()
    prev_done = origin
    for i, ((k, kind, _), (due, send, done, status, data)) in enumerate(zip(schedule, sent)):
        wait_ms.append((send - due) * 1e3)
        lag_ms.append(max(0.0, send - max(due, prev_done)) * 1e3)
        prev_done = done
        if kind is not None:
            error = json.loads(data).get("error", "") if status == 400 else ""
            if not all(fragment in error for fragment in MALFORMED[kind]):
                failed += 1
                failed_kinds.add(kind)
            continue
        if status != 200:
            failed += 1
            checks.require(False, f"request {i}: status {status}: {data[:200]!r}")
            continue
        reply = json.loads(data)
        common.check_reply(checks, f"request {i}", reply, requests[k][1], queues[k], config.l_o)
        if k < SERVE_REFERENCE_SAMPLE and k not in checked:
            checked.add(k)
            expected = reference.rerank(ref, requests[k][0], requests[k][1],
                                        _weights_tuple(ObjectiveWeights()))
            common.check_against_reference(checks, f"request {i}", reply, expected)
        kernels = round_kernels[i // SERVE_ROUND] or probe.kernel_ms
        timings.latency_ms.append(((done - due) * 1e3, probe.factor(kernels)))
        client_ms.append((done - send) * 1e3)
    checks.require(len(checked) == SERVE_REFERENCE_SAMPLE, "reference sample incomplete")

    ok = [i for i, (k, _, _) in enumerate(schedule) if k is not None]
    # The open loop fixes the offered rate, so the completed rate is not scaled.
    timings.per_s.append((len(timings.latency_ms) / (sent[-1][2] - origin), 1.0))
    metrics, raw = _time_metrics(timings, probe)
    result = {
        "attempted": len(schedule),
        "failed": failed,
        "failed_kinds": sorted(failed_kinds),
        "checks": checks,
        "metrics": {**metrics, "peak_rss_mb": totals.get("peak_rss_mb", 0.0),
                    "eval_loss": eval_loss},
        "raw": raw,
        "series": _series(timings, probe),
        "samples": len(timings.latency_ms),
    }
    if traced:
        records = totals["records"]
        posts = records[1 + SERVE_WARMUP:]  # start-up record, then one per POST
        timed = [posts[i] for i in ok]
        t = spans.totals(timed)
        layers = spans.layer_metrics(timed, records[:1], per=len(ok))
        in_service = (t["server.parse_rerank_request"] + t["server.rerank"]) / 1e6 / len(ok)
        layers["server.http_ms"] = float(np.mean(client_ms)) - in_service
        layers["serve.wait_ms"] = float(np.mean(wait_ms))
        layers["serve.generator_lag_ms"] = float(np.mean(lag_ms))
        result["layers"] = layers
    return result


# --------------------------------- train -------------------------------------


class StepClock:
    """Times each optimiser step, from its model.forward call to the return
    of its nn.adam_step, and counts the samples trained on. Forwards inside
    trainer.evaluate_model are evaluation, not steps."""

    def __init__(self):
        self.steps_ns: list[int] = []
        self.samples = 0
        self.capture = False
        self.eval_arrays = None   # what train() passed to evaluate_model
        self.eval_inputs = None   # (e_item, user, e_score) of one eval batch
        self._in_eval = False
        self._step_start = None

    def install(self) -> list:
        from sortgen import model, nn, trainer
        forward, adam_step, evaluate = model.forward, nn.adam_step, trainer.evaluate_model

        def timed_forward(*args, **kwargs):
            if self._in_eval:
                if self.capture and self.eval_inputs is None:
                    self.eval_inputs = tuple(np.array(a) for a in args[2:5])
            else:
                self._step_start = time.perf_counter_ns()
                self.samples += args[2].shape[0]
            return forward(*args, **kwargs)

        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.steps_ns.append(time.perf_counter_ns() - self._step_start)
            return out

        def timed_evaluate(*args, **kwargs):
            if self.capture and self.eval_arrays is None:
                self.eval_arrays = args[2]
            self._in_eval = True
            try:
                return evaluate(*args, **kwargs)
            finally:
                self._in_eval = False

        undo = [(model, "forward", forward), (nn, "adam_step", adam_step),
                (trainer, "evaluate_model", evaluate)]
        model.forward, nn.adam_step, trainer.evaluate_model = (
            timed_forward, timed_adam_step, timed_evaluate)
        return undo


def run_train(seed: int, seconds: float, traced: bool) -> dict:
    from sortgen import model, simulator, trainer
    from sortgen.nn import Var

    engine = _engine()
    sim = simulator.SimConfig(sessions=TRAIN_SESSIONS, seed=TRAIN_WORLD_SEED)
    tconf = trainer.TrainConfig(batch_size=TRAIN_BATCH, epochs=TRAIN_EPOCHS, seed=seed)
    ckpt_path = OUT_DIR / "train.ckpt"
    OUT_DIR.mkdir(exist_ok=True)

    probe, timings, reports = common.SpeedProbe(), common.Timings(), []
    tracer = spans.Tracer() if traced else None
    undo = spans.install(tracer) if traced else []
    clock = StepClock()
    undo += clock.install()
    try:
        def set_up():
            return simulator.build_dataset(engine, sim), model.init_params(engine, seed=seed)

        for _ in range(SETUP_REPEATS["train"]):
            (dataset, init), secs, scale = probe.bracket(set_up)
            timings.setup_s.append((secs, scale))
        init_values = {name: p.value.copy() for name, p in init.items()}

        def one_round():
            params = {name: Var(v.copy()) for name, v in init_values.items()}
            return trainer.train(dataset, params, engine, tconf, ckpt_path=ckpt_path)

        clock.capture = True  # the warm-up round supplies the eval sessions
        warm = one_round()
        clock.capture = False
        if tracer:
            tracer.new_record()

        start = time.perf_counter()
        while not reports or time.perf_counter() - start < seconds:
            steps_before, samples_before = len(clock.steps_ns), clock.samples
            report, secs, scale = probe.bracket(one_round)
            reports.append(report)
            timings.latency_ms += [(ns / 1e6, scale) for ns in clock.steps_ns[steps_before:]]
            timings.per_s.append(((clock.samples - samples_before) / secs, scale))
    finally:
        spans.uninstall(undo)

    checks = Checks()
    best = min(warm.eval_losses)
    for i, rep in enumerate(reports):
        finite = np.isfinite(rep.train_losses).all() and np.isfinite(rep.eval_losses).all()
        checks.require(bool(finite), f"round {i}: non-finite loss")
        checks.require(min(rep.eval_losses) == best, f"round {i}: best eval loss "
                       f"{min(rep.eval_losses)!r} differs from {best!r} at the same seed")
    untrained_params = {name: Var(v) for name, v in init_values.items()}
    untrained = trainer.evaluate_model(engine, untrained_params, clock.eval_arrays)["eval_loss"]
    checks.require(best < untrained, f"best eval loss {best} not below untrained {untrained}")
    params, config = model.load_checkpoint(ckpt_path)
    reloaded = trainer.evaluate_model(config, params, clock.eval_arrays)["eval_loss"]
    checks.require(abs(reloaded - best) <= 1e-9 * abs(best),
                   f"reloaded checkpoint eval loss {reloaded!r} != best {best!r}")
    out = model.forward(config, params, *clock.eval_inputs)
    click, pay = reference.forward(reference.load_checkpoint(ckpt_path), *clock.eval_inputs)
    err = max(np.abs(out.click.value - click).max(), np.abs(out.pay.value - pay).max())
    checks.require(err <= 1e-9, f"reference forward differs from model.forward by {err:.3e}")

    metrics, raw = _time_metrics(timings, probe)
    result = {
        "attempted": len(reports),
        "failed": 0,
        "checks": checks,
        "metrics": {**metrics, "peak_rss_mb": common.peak_rss_mb(), "eval_loss": best},
        "raw": raw,
        "series": _series(timings, probe),
        "samples": len(timings.latency_ms),
        "untrained_eval_loss": untrained,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(
            tracer.records[1:], tracer.records[:1], per=len(timings.latency_ms),
            epochs=len(reports) * TRAIN_EPOCHS)
    return result


WORKLOADS = {"rerank": run_rerank, "serve": run_serve, "train": run_train}

# Inputs that do not depend on --seed, recorded with every result.
FIXED_SEEDS = {"checkpoint": common.CHECKPOINT_SEED, "served_eval_sessions": EVAL_SEED,
               "train_world": TRAIN_WORLD_SEED, "malformed_requests": MALFORMED_SEED}
