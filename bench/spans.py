"""Span tracing installed from outside the package.

The traced run replaces the names that calling modules bind (for example
`dcom.train.extract_features` and `dcom.infer.extract_features`, which are
separate bindings of one function) with timing wrappers, and wraps
`Model.forward` and `Model.backward` on the class. No `dcom` source changes.
Each call becomes a span (name, start, end, parent) kept in memory; the
benchmark writes them out when it ends.

Only names that callers in other modules use are wrapped, never the private
helpers behind them, so the bindings stay valid while those helpers change.
A binding whose attribute no longer exists is skipped and reported.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Several bindings may share one span name.
FUNCTION_BINDINGS = (
    ("dcom.tokenizers", "build_vocab", "tokenizers.build_vocab"),
    ("dcom.tokenizers", "encode", "tokenizers.encode"),
    ("dcom.augment", "sample_single", "augment.sample"),
    ("dcom.augment", "sample_multi", "augment.sample"),
    ("dcom.augment", "inference_inputs", "augment.sample"),
    ("dcom.train", "extract_features", "features.extract_features"),
    ("dcom.infer", "extract_features", "features.extract_features"),
    ("dcom.train", "make_batch", "train.make_batch"),
    ("dcom.infer", "make_batch", "train.make_batch"),
    ("dcom.train", "adam_step", "train.adam_step"),
    ("dcom.infer", "predict_kvote", "infer.predict_kvote"),
    ("dcom.cli", "predict_kvote", "infer.predict_kvote"),
    ("dcom.serialize", "load_bundle", "serialize.load_bundle"),
    ("dcom.cli", "load_bundle", "serialize.load_bundle"),
    ("dcom.ingest", "load_dataset", "ingest.load_dataset"),
    ("dcom.cli", "main", "cli.main"),
)


def _forward_name(args, kwargs):
    train_mode = kwargs.get("train_mode", args[2] if len(args) > 2 else False)
    return "nn.forward.train" if train_mode else "nn.forward.infer"


class Tracer:
    """Records spans and counters; `install()` puts the wrappers in place."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.encoded = Counter()  # (text, max_len) -> calls
        self.encode_stats = {}  # (text, max_len) -> (length, at cap, [UNK] count)
        self.skipped = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, on_result=None):
        """A wrapper that records one span per call of fn.

        `name` is a string or a function of the call's (args, kwargs).
        `on_result(tracer, args, kwargs, result)` may add counters.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        named_by_call = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if named_by_call else name
            index = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.skipped.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._restore.append((owner, attr, original))

    def install(self):
        from dcom.nn import Model

        hooks = {
            "tokenizers.encode": _count_encode,
            "serialize.load_bundle": _count_bundle_bytes,
        }
        for module, attr, name in FUNCTION_BINDINGS:
            self.patch(importlib.import_module(module), attr, name, hooks.get(name))
        self.patch(Model, "forward", _forward_name, _count_forward)
        self.patch(Model, "backward", "nn.backward")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def encode_totals(self) -> dict:
        """Calls, distinct inputs, and per-call sums of the encode counters."""
        totals = Counter(calls=sum(self.encoded.values()), distinct=len(self.encoded))
        for key, calls in self.encoded.items():
            length, at_cap, unk = self.encode_stats.get(key, (0, 0, 0))
            totals["tokens"] += calls * length
            totals["at_cap"] += calls * at_cap
            totals["unk"] += calls * unk
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_encode(tracer, args, kwargs, seq):
    # encode is a pure function of (vocab, text, max_len) and a run has one
    # vocabulary, so each distinct input's counters are computed once
    key = (args[1] if len(args) > 1 else kwargs["text"],
           args[2] if len(args) > 2 else kwargs["max_len"])
    tracer.encoded[key] += 1
    mask = getattr(seq, "attention_mask", None)
    if key in tracer.encode_stats or mask is None:
        return
    from dcom.tokenizers import UNK_ID

    length = int(mask.sum())
    unk = int((seq.ids[:length] == UNK_ID).sum())
    tracer.encode_stats[key] = (length, int(length == mask.shape[-1]), unk)


def _count_forward(tracer, args, kwargs, result):
    if _forward_name(args, kwargs) != "nn.forward.infer":
        return
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    mask = batch["tok_mask"]
    rows = mask.size // mask.shape[-1]
    tracer.counts["forward.rows"] += rows
    tracer.counts["forward.positions"] += mask.size
    tracer.counts["forward.padded"] += int(mask.size - mask.sum())


def _count_bundle_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["bundle_bytes"] = os.path.getsize(path)


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only the outermost span of a name, so a wrapped
    function that calls another binding of the same name is not counted twice.
    """
    inclusive, self_s, calls = Counter(), Counter(), Counter()
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += end - start
    return inclusive, self_s, calls


def root_time(spans) -> float:
    """Seconds spent inside any traced call."""
    return sum(end - start for name, start, end, parent in spans if parent < 0)
