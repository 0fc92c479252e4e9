"""Command-line surface: synth, train, predict, evaluate, augment,
features dump, explain, and inspect.

Exit codes: 0 success, 1 usage error, 2 data, config or file error.  All
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from . import augment as augment_mod
from . import ingest
from .core import MODES, MULTI_MODES
from .errors import ConfigError, DcomError, ParseError
from .explain import feature_importance
from .features import FEATURE_NAMES, extract_features
from .infer import evaluate, predict_many
from .serialize import arch_header, load_bundle, save_bundle
from .train import TrainingConfig, train_model

CONFIG_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_scalar(p) for p in inner.split(",")] if inner else []
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path) -> TrainingConfig:
    """Flat key = value config (TOML-style scalars, '#' comments).

    Requires config_version = 1; unknown keys are rejected.
    """
    try:
        text = ingest.read_text(path)
    except ParseError as exc:
        raise ConfigError(f"{path}:{exc.line}: {exc.reason}") from None
    raw = {}
    with io.StringIO(text, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DcomError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            raw[key.strip()] = _parse_scalar(value)
    version = raw.pop("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise DcomError(f"unsupported config_version {version}")
    return TrainingConfig.from_dict(raw)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _load_data(path):
    return ingest.load_dataset(path, format=ingest.guess_format(path))


def _cmd_synth(args):
    spec = ingest.DEFAULT_CLASS_SPEC
    if args.classes:
        spec = {name.strip(): name.strip() for name in args.classes.split(",")}
    instances = ingest.generate_synthetic_corpus(spec, args.n_per_class, seed=args.seed)
    ingest.save_jsonl(instances, args.out)
    print(f"wrote {len(instances)} columns to {args.out}")
    return 0


def _cmd_train(args):
    # refused before training, not after it
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise DcomError(f"--out {args.out} must name a file in an existing directory")
    config = parse_config_file(args.config) if args.config else TrainingConfig()
    instances, _ = _load_data(args.data)
    if args.split:
        split = ingest.DatasetSplit.load(args.split)
    else:
        split = ingest.make_split(
            len(instances), seed=args.seed,
            stratify_labels=[i.label for i in instances],
        )
    log_path = args.log or (args.out + ".epochs.csv")
    with contextlib.ExitStack() as stack:
        fh = None

        def start_outputs():
            # --split-out and the epoch log are made once the first epoch
            # reports, or training returns without one: a run that fails
            # before then, say in building the model, leaves neither behind
            nonlocal fh
            if fh is None:
                if args.split_out:
                    split.save(args.split_out)
                fh = stack.enter_context(open(log_path, "w", encoding="utf-8", newline=""))
                csv.writer(fh).writerow(["epoch", "train_loss", "val_accuracy", "val_f1",
                                         "learning_rate", "grad_norm_max", "truncated_frac",
                                         "wall_time_s"])

        def log(report):
            start_outputs()
            csv.writer(fh).writerow([report.epoch, f"{report.train_loss:.6f}",
                                     f"{report.val_accuracy:.4f}", f"{report.val_f1:.4f}",
                                     f"{report.learning_rate:.2e}",
                                     f"{report.grad_norm_max:.4e}", f"{report.truncated_frac:.4f}",
                                     f"{report.wall_time_s:.2f}"])
            fh.flush()
            print(f"epoch {report.epoch}: loss {report.train_loss:.4f} "
                  f"val_f1 {report.val_f1:.4f} lr {report.learning_rate:.2e}")

        bundle, reports = train_model(instances, split, config, seed=args.seed,
                                      log_callback=log)
        start_outputs()
    save_bundle(bundle, args.out)
    best = bundle.metadata["best_val_f1"]
    print(f"saved {args.out} (best val F1 {best:.4f} over {len(reports)} epochs)")
    return 0


def _cmd_predict(args):
    bundle = load_bundle(args.model)
    instances, _ = _load_data(args.data)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    # batch_size columns per predict_many call, each written out as it ends
    rows = bundle.training.batch_size
    try:
        for start in range(0, len(instances), rows):
            sources = range(start, min(start + rows, len(instances)))
            seeds = [np.random.default_rng([args.seed, i]).integers(2**63) for i in sources]
            preds = predict_many(bundle, instances[start : start + rows], args.k, seeds)
            for i, pred in zip(sources, preds):
                record = {
                    "source": i,
                    "label": pred.label,
                    "confidence": float(pred.probabilities.max()),
                    "votes": pred.votes,
                }
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_evaluate(args):
    bundle = load_bundle(args.model)
    instances, _ = _load_data(args.data)
    split = ingest.DatasetSplit.load(args.split)
    report = evaluate(bundle, instances, split.test, k=args.k, seed=args.seed,
                      bundle_path=args.model)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.table:
        with open(args.table, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["class", "precision", "recall",
                                                    "f1", "support"])
            writer.writeheader()
            writer.writerows(report["per_class"])
    return 0


def _cmd_augment(args):
    # a bad --r is refused before the data is read
    config = TrainingConfig(mode=args.mode, r=args.r, multi_mode=args.multi_mode)
    instances, _ = _load_data(args.data)
    rng = np.random.default_rng(args.seed)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for i, inst in enumerate(instances):
            s = augment_mod.training_sample(inst, config, rng)
            if config.mode == "single":
                record = {"source": i, "r": s.r, "values": list(s.values), "text": s.text}
            else:
                record = {"source": i, "r": config.r, "texts": list(s.texts),
                          "mask": [int(m) for m in s.pad_mask]}
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_features(args):
    instances, _ = _load_data(args.data)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(("source", "label") + FEATURE_NAMES)
        for i, (inst, row) in enumerate(zip(instances, extract_features(instances).tolist())):
            writer.writerow([i, inst.label or ""] + [repr(v) for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_explain(args):
    bundle = load_bundle(args.model)
    report = feature_importance(bundle, use_labels=args.labels)
    print(report.format_table())
    if args.csv:
        report.write_csv(args.csv)
    return 0


def _cmd_inspect(args):
    bundle = load_bundle(args.model)
    print(json.dumps({
        "training": bundle.training.to_dict(),
        "metadata": bundle.metadata,
        "vocab": {"kind": bundle.vocab.kind, "size": len(bundle.vocab)},
        "classes": list(bundle.class_vocab.names),
        "arch": arch_header(bundle.training, len(bundle.vocab), len(bundle.class_vocab)),
        "n_parameters": sum(p.size for p in bundle.params.values()),
    }, indent=2))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dcom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=_int_at_least(1), default=100)
    p.add_argument("--classes", help="comma-separated generator names")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key = value training config file")
    p.add_argument("--out", required=True, help="bundle output path (.dcom)")
    p.add_argument("--split", help="existing split manifest JSON")
    p.add_argument("--split-out", help="write the split manifest here")
    p.add_argument("--log", help="epoch report CSV (default <out>.epochs.csv)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--k", type=_int_at_least(1), default=1)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="metrics report on a test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--k", type=_int_at_least(1), default=1)
    p.add_argument("--out", help="metrics JSON path (default stdout)")
    p.add_argument("--table", help="per-class CSV path")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("augment", help="stream constructed samples as JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default="single")
    p.add_argument("--r", type=_int_at_least(1), default=45)
    p.add_argument("--multi-mode", choices=MULTI_MODES, default="pad")
    p.add_argument("--out")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("features", help="engineered-feature utilities")
    p.add_argument("action", choices=("dump",))
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("explain", help="feature-importance report")
    p.add_argument("--model", required=True)
    p.add_argument("--csv", help="also write the report as CSV")
    p.add_argument("--labels", action="store_true",
                   help="use long feature labels instead of short names")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("inspect", help="print a bundle's config, metadata, vocabulary, "
                                       "classes, arch and parameter count as JSON")
    p.add_argument("model", help="bundle path (.dcom)")
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DcomError, OSError) as exc:  # OSError: a path that is missing, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
