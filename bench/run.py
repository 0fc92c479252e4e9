"""dcom benchmark: one seeded workload per run, every metric by name and unit.

    python3 bench/run.py --workload single --seed 11 --seconds 30 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics. With
--trace 1 the measured phase runs once untraced and once traced, and the run
reports the per-layer metrics of the traced pass and the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 when every correctness gate holds, 1
when one fails, and 2 when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import environment

WORKLOAD_NAMES = ("single", "multi")
END_TO_END = (
    "setup_s", "train_s", "epoch_s", "test_f1",
    "latency_k1_p50_ms", "latency_k1_p95_ms", "latency_k10_p50_ms", "latency_k10_p95_ms",
    "columns_per_s", "f1_k1", "f1_k10", "peak_rss_mb",
)
PER_LAYER = {
    "tokenizers.build_vocab.s": "s",
    "tokenizers.encode.s": "s",
    "tokenizers.encode.calls": "count",
    "tokenizers.encode.distinct_frac": "frac",
    "tokenizers.encode.at_cap_frac": "frac",
    "tokenizers.unk_frac": "frac",
    "nn.forward.train.s": "s",
    "nn.backward.s": "s",
    "nn.forward.infer.s": "s",
    "nn.forward.rows": "count",
    "nn.forward.pad_frac": "frac",
    "train.make_batch.self_s": "s",
    "train.adam_step.s": "s",
    "train.adam_step.calls": "count",
    "features.extract_features.s": "s",
    "augment.sample.s": "s",
    "infer.predict_kvote.self_s": "s",
    "serialize.load_bundle.s": "s",
    "serialize.bundle_bytes": "bytes",
    "ingest.load_dataset.s": "s",
    "cli.main.self_s": "s",
    "unattributed_s": "s",
    "trace.overhead_frac": "frac",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall, overhead) -> dict:
    from spans import root_time, totals

    inclusive, self_s, calls = totals(tracer.spans)
    c = tracer.counts
    enc = tracer.encode_totals()
    values = {
        "tokenizers.build_vocab.s": inclusive["tokenizers.build_vocab"],
        "tokenizers.encode.s": inclusive["tokenizers.encode"],
        "tokenizers.encode.calls": calls["tokenizers.encode"],
        "tokenizers.encode.distinct_frac": _ratio(enc["distinct"], enc["calls"]),
        "tokenizers.encode.at_cap_frac": _ratio(enc["at_cap"], enc["calls"]),
        "tokenizers.unk_frac": _ratio(enc["unk"], enc["tokens"]),
        "nn.forward.train.s": inclusive["nn.forward.train"],
        "nn.backward.s": inclusive["nn.backward"],
        "nn.forward.infer.s": inclusive["nn.forward.infer"],
        "nn.forward.rows": c["forward.rows"],
        "nn.forward.pad_frac": _ratio(c["forward.padded"], c["forward.positions"]),
        "train.make_batch.self_s": self_s["train.make_batch"],
        "train.adam_step.s": inclusive["train.adam_step"],
        "train.adam_step.calls": calls["train.adam_step"],
        "features.extract_features.s": inclusive["features.extract_features"],
        "augment.sample.s": inclusive["augment.sample"],
        "infer.predict_kvote.self_s": self_s["infer.predict_kvote"],
        "serialize.load_bundle.s": inclusive["serialize.load_bundle"],
        "serialize.bundle_bytes": c["bundle_bytes"],
        "ingest.load_dataset.s": inclusive["ingest.load_dataset"],
        "cli.main.self_s": self_s["cli.main"],
        "unattributed_s": traced_wall - root_time(tracer.spans),
        "trace.overhead_frac": overhead,
    }
    return {name: (float(v), PER_LAYER[name], 1) for name, v in values.items()}


def findings(tracer, outcome) -> list[str]:
    """Which layer is the largest part of setup_s and of predict_kvote latency."""
    from spans import self_times

    spans = tracer.spans
    selfs = self_times(spans)
    lines = []

    def largest(indices, whole):
        parts = {}
        for i in indices:
            parts[spans[i][0]] = parts.get(spans[i][0], 0.0) + selfs[i]
        if whole is not None:
            parts["(untraced code)"] = whole - sum(parts.values())
        name, seconds = max(parts.items(), key=lambda kv: kv[1])
        total = whole if whole is not None else sum(parts.values())
        return name, seconds, total

    # setup ends where the first epoch draws its first batch
    epoch_starts = [s[1] for s in spans if s[0] in ("augment.sample", "train.make_batch")]
    if epoch_starts and "tokenizers.build_vocab" in {s[0] for s in spans}:
        first = min(epoch_starts)
        name, seconds, total = largest(
            [i for i, s in enumerate(spans) if s[1] < first], outcome.raw["setup_s"]
        )
        lines.append(
            f"largest part of setup_s: {name} {seconds:.3f}s of {total:.3f}s "
            f"({_ratio(seconds, total):.0%}); build_vocab largest: {name == 'tokenizers.build_vocab'}"
        )

    def inside_predict(i):
        while i >= 0:
            if spans[i][0] == "infer.predict_kvote":
                return True
            i = spans[i][3]
        return False

    in_predict = [i for i in range(len(spans)) if inside_predict(i)]
    if in_predict:
        name, seconds, total = largest(in_predict, None)
        lines.append(
            f"largest part of predict_kvote time: {name} {seconds:.3f}s of {total:.3f}s "
            f"({_ratio(seconds, total):.0%}); nn.forward.infer largest: {name == 'nn.forward.infer'}"
        )
    return lines


def check_digests(workload, seed, digests) -> tuple[bool, str]:
    """Two runs of the same code at the same seed must predict the same labels."""
    store = environment.OUT / "digests.json"
    key = f"{workload} seed={seed} code={environment.code_digest()}"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if key in known:
        return known[key] == digests, f"earlier run: {known[key]}"
    known[key] = digests
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return True, "first run of this code at this seed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="minimum time of the measured predict phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        environment.prepare()
    except environment.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import spans
    import workloads

    env = environment.describe()
    workdir = environment.OUT / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.prepare(args.seed)

        def measure(once):
            return workloads.measure(args.workload, inputs, args.seed, workdir, args.seconds, once)

        notes = []
        if args.trace:
            untraced = measure(once=True)
            tracer = spans.Tracer()
            tracer.install()
            try:
                outcome = measure(once=True)
            finally:
                tracer.uninstall()
            overhead = outcome.scaled_wall() / untraced.scaled_wall() - 1.0
            metrics = layer_metrics(tracer, outcome.wall_s, overhead)
            notes = findings(tracer, outcome)
            notes += [f"binding not found, not traced: {b}" for b in tracer.skipped]
            span_path = environment.OUT / f"spans-{args.workload}.jsonl"
            tracer.write(span_path)
            notes.append(f"{len(tracer.spans)} spans written to {span_path.relative_to(environment.ROOT)}")
            outcome.gates += [(f"untraced: {n}", ok, d) for n, ok, d in untraced.gates]
        else:
            outcome = measure(once=False)
            metrics = {name: outcome.metrics[name] for name in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok, detail = check_digests(args.workload, args.seed, outcome.digests)
    outcome.gate("labels match earlier runs of this code and seed", ok, detail)
    correct = all(ok for _, ok, _ in outcome.gates)

    print(f"# dcom bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    raw = {} if args.trace else outcome.raw
    print(f"# {'metric':34} {'value':>14} {'unit':6} {'samples':>7} {'raw':>14}")
    for name, (value, unit, samples) in metrics.items():
        unscaled = f"{raw[name]:14.6g}" if name in raw else ""
        print(f"# {name:34} {value:14.6g} {unit:6} {samples:7} {unscaled}")
    print(f"# host slowness {json.dumps(outcome.host)}")
    for name, ok, detail in outcome.gates:
        print(f"# gate {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"# label digests {json.dumps(outcome.digests, sort_keys=True)}")
    for note in notes:
        print(f"# {note}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "gates": outcome.gates, "digests": outcome.digests,
        "notes": notes, "host_slowness": outcome.host,
        "metrics": {n: {"value": v, "unit": u, "samples": s, "raw": raw.get(n)}
                    for n, (v, u, s) in metrics.items()},
    }
    result_path = environment.OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
