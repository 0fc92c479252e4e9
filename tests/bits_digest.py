"""Digests of a seeded bench run's bits: bundle, labels and probabilities.

Trains the benchmark's bundle for one workload and seed as `bench/run.py`
trains it (`workloads.prepare(seed)`, `workloads.training_config(mode)`,
`workloads.TRAIN_SEED`), saves and loads it, and predicts the test split
with it. Prints one line each:

  bundle      sha256[:16] of the saved bundle's bytes
  labels_k1   `stats.label_digest` of the predict_kvote labels at k=1
  labels_k10  the same at k=10
  probs_k1    sha256[:16] of the predict_kvote probabilities at k=1
  probs_k10   the same at k=10
  probs_many  sha256[:16] of the predict_many probabilities at k=10, one
              call per shard of `workloads.SHARD_COLUMNS` columns

Every column is predicted with the seed the bench gives it. Two checkouts
whose training and inference keep their bits print the same lines; at seed
11 with no overrides the label digests are the ones ROADMAP.md records.
`--set key=value` (repeatable) overrides a training config key, its value
read as a config file reads one; `--checkout DIR` digests another checkout's
code with this script, for instance a parent commit's.

    PYTHONPATH=src python tests/bits_digest.py --mode multi --seed 11
    python tests/bits_digest.py --mode multi --seed 5 --set epochs=1 \\
        --set aggregation=weighted_sum --set multi_mode=with_replacement

Pytest does not collect this file. It reads `bench/` and writes only to a
temporary directory.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("single", "multi"), required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one training config key (repeatable)")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose code is digested (default: this one)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "bench"))
    import environment

    environment.prepare()  # before numpy: BLAS threads and the checkout's src/
    import numpy as np
    import workloads
    from dcom import cli, infer, ingest, serialize, train
    from stats import label_digest

    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--set takes key=value, got {item!r}")
        overrides[key.strip()] = cli._parse_scalar(value)
    config = workloads.training_config(args.mode)
    config = train.TrainingConfig.from_dict({**config.to_dict(), **overrides})
    inputs = workloads.prepare(args.seed)
    bundle, _ = train.train_model(inputs.instances, inputs.split, config,
                                  seed=workloads.TRAIN_SEED)
    test = [inputs.instances[i] for i in inputs.split.test]
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path = Path(tmp) / "model.dcom", Path(tmp) / "test.jsonl"
        serialize.save_bundle(bundle, model_path)
        print(f"bundle      {sha16(model_path.read_bytes())}", flush=True)
        # prediction reads the bundle and the columns back, as the bench does
        bundle = serialize.load_bundle(model_path)
        ingest.save_jsonl(test, data_path)
        columns, _ = ingest.load_dataset(data_path)
    seeds = inputs.seeds
    for k in (1, workloads.PREDICT_K):
        preds = [infer.predict_kvote(bundle, column, k=k, seed=seed)
                 for column, seed in zip(columns, seeds)]
        print(f"labels_k{k:<3} {label_digest([p.label for p in preds])}", flush=True)
        print(f"probs_k{k:<4} {sha16(np.stack([p.probabilities for p in preds]).tobytes())}",
              flush=True)
    shard = workloads.SHARD_COLUMNS
    preds = [p for lo in range(0, len(columns), shard)
             for p in infer.predict_many(bundle, columns[lo : lo + shard], k=workloads.PREDICT_K,
                                         seeds=seeds[lo : lo + shard])]
    print(f"probs_many  {sha16(np.stack([p.probabilities for p in preds]).tobytes())}")


if __name__ == "__main__":
    main()
