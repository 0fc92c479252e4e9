"""The benchmark's tracer wraps functions by the names their callers bind
(`bench/spans.py`, FUNCTION_BINDINGS). A binding that no longer resolves is
skipped at run time, and its per-layer metric silently reads 0, so a change
that unbinds a traced name must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Stale since batched prediction: dcom.infer calls make_batch through
# forward_samples, and dcom.cli predicts through predict_many.
KNOWN_STALE = {"dcom.infer.make_batch", "dcom.cli.predict_kvote"}


def test_only_the_known_stale_bindings_are_unresolved():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = {f"{module}.{attr}" for module, attr, _ in spans.FUNCTION_BINDINGS
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved == KNOWN_STALE
