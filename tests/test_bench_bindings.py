"""The benchmark's tracer wraps functions by the names their callers bind
(`bench/spans.py`, FUNCTION_BINDINGS). A binding that no longer resolves is
skipped at run time, and its per-layer metric silently reads 0, so a change
that unbinds a traced name must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

from conftest import TINY_CONFIG
from dcom import infer
from dcom.train import TrainingConfig, train_model

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# Stale since batched prediction: dcom.infer calls make_batch through
# forward_samples, and dcom.cli predicts through predict_many.
KNOWN_STALE = {"dcom.infer.make_batch", "dcom.cli.predict_kvote"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_only_the_known_stale_bindings_are_unresolved():
    spans = load_spans()
    unresolved = {f"{module}.{attr}" for module, attr, _ in spans.FUNCTION_BINDINGS
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved == KNOWN_STALE


def test_traced_run_counts_forwards(sanity_corpus):
    """The tracer's hooks read what the package hands them: the forward
    counter reads each inference batch's tok_mask, which make_batch keeps
    for it alone (the model reads lengths), and which only a traced bench
    run calls otherwise. One epoch of each mode and one k-vote prediction."""
    instances, split = sanity_corpus
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for mode in ("single", "multi"):
            config = TrainingConfig(mode=mode, epochs=1, r=8, **TINY_CONFIG)
            bundle, _ = train_model(instances, split, config, seed=3)
            infer.predict_kvote(bundle, instances[split.test[0]], k=3, seed=0)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["forward.rows"] > 0
    assert 0 <= counts["forward.padded"] < counts["forward.positions"]
    assert {"nn.forward.train", "nn.backward"} <= {span[0] for span in tracer.spans}
