"""Serve the re-ranker over HTTP and issue a rerank request.

Starts the threaded HTTP service on a random port with a freshly trained
tiny checkpoint, checks /healthz, posts a candidate pool to /rerank, and
shows that a malformed request comes back as a 400 with the offending
field named.

Run:  python3 demos/06_serve_and_rerank.py
"""

import json
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from sortgen import model as sortmodel, server, simulator
from sortgen.core import EngineConfig, ObjectiveWeights

engine = EngineConfig(l_s=12, l_o=4, d_model=16, n_layers=1, max_count=4, seed=6)
ckpt = Path(tempfile.mkdtemp()) / "model.ckpt"
sortmodel.save_checkpoint(ckpt, sortmodel.init_params(engine), engine)

httpd = server.make_server(str(ckpt), 0, ObjectiveWeights())
port = httpd.server_address[1]
threading.Thread(target=httpd.serve_forever, daemon=True).start()
print(f"serving on 127.0.0.1:{port}")

with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz") as resp:
    health = json.loads(resp.read())
print(f"healthz: status={health['status']} "
      f"checkpoint_hash={health['checkpoint_hash'][:12]}...")

rng = np.random.default_rng(6)
catalog = simulator.catalog_table(40, engine.d_emb, 8, seed=6)
pool = simulator.sample_pool(catalog, engine.l_s, rng)
user = simulator.sample_user(rng, engine.d_user)
request_doc = {
    "user": [float(v) for v in user.user_features],
    "candidates": [{"id": i, "emb": emb, "price": price, "ctr": ctr, "cvr": cvr, "cat": cat}
                   for i, emb, (ctr, cvr), price, cat in zip(*(col.tolist() for col in pool))],
    "lambda": 0.8,
}


def post(doc):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/rerank", data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


result = post(request_doc)
print(f"reranked slate: {result['item_ids']}")
print(f"source queues:  {result['source_queues']}")
print(f"combined value: {result['combined_value']:.4f} "
      f"({result['latency_ns'] / 1e6:.1f} ms)")

broken = json.loads(json.dumps(request_doc))
del broken["candidates"][2]["price"]
try:
    post(broken)
except urllib.error.HTTPError as exc:
    print(f"malformed request -> HTTP {exc.code}: "
          f"{json.loads(exc.read())['error']}")

httpd.shutdown()
