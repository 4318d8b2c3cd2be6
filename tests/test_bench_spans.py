"""The benchmark's span timers still find every function they wrap.

`bench/spans.py` times sortgen by replacing module attributes by name, so a
rename on the request path would otherwise break `--trace 1` silently.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_wraps_every_target_and_uninstall_restores_it():
    from sortgen import generation, server, values

    spans = _load_spans()
    undo = spans.install(spans.Tracer())  # getattr raises on a missing attribute
    try:
        assert undo
        for owner, attr, original in undo:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        wrapped = {(owner, attr) for owner, attr, _ in undo}
        for owner, attr in [(server, "parse_rerank_request"), (server, "rerank"),
                            (generation, "generate"), (generation, "build_queues"),
                            (generation.ValueModel, "combined_values"),
                            (values, "combined_values_batch")]:
            assert (owner, attr) in wrapped, attr
    finally:
        spans.uninstall(undo)
    for owner, attr, original in undo:
        assert getattr(owner, attr) is original
