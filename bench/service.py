"""Launcher for the sortgen HTTP service under the serve workload.

    python3 bench/service.py --ckpt CKPT --totals OUT.json [--trace]

Binds an ephemeral port, prints it on stdout once the checkpoint is loaded,
and serves until its stdin closes. It then writes its peak RSS and, with
--trace, the span records (one per POST, after one for start-up) to
OUT.json. With --trace the spans are installed before `server.make_server`,
so the checkpoint load is timed too.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--totals", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import common
    from sortgen import server

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        handle_post = server.RerankHandler.do_POST

        def traced_post(handler):
            tracer.new_record()
            handle_post(handler)

        server.RerankHandler.do_POST = traced_post

    httpd = server.make_server(args.ckpt, 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    print(httpd.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        doc = {"peak_rss_mb": common.peak_rss_mb(),
               "records": tracer.records if tracer else []}
        Path(args.totals).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
