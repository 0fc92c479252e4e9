"""Criterion 7's k=10/k=1 latency ratio, measured several times in one process.

Trains the bundle criterion 7 uses (`test_acceptance.SINGLE_CONFIG`, seed 3,
on the acceptance corpus), then runs the criterion's own loop `--runs` times:
the test columns in shards of 40, each shard through `evaluate` at k=1 and
then at k=10 with seed 0, summing each k's per-column latency. Prints each
run's ratio of the k=10 sum to the k=1 sum, then their median and minimum.
A change that moves per-vote or per-column cost reports the ratio this way;
the criterion's test and its bound, [5, 20], are not touched.

With `--bundle PATH` the bundle is loaded from PATH if that file exists, and
otherwise trained and saved there. A seeded bundle does not depend on the
code that trained it as long as training's bits do not change, so a protocol
of many invocations per side can train it once.

    PYTHONPATH=src python tests/kvote_ratio.py --runs 10
    PYTHONPATH=src python tests/kvote_ratio.py --runs 3 --bundle crit7.bundle

Pytest does not collect this file.
"""

import argparse
import os
import statistics

from dcom import ingest
from dcom.infer import evaluate
from dcom.serialize import load_bundle, save_bundle
from dcom.train import train_model
from test_acceptance import SINGLE_CONFIG

SHARD = 40  # criterion 7's shard of test columns


def ratio_once(bundle, instances, test):
    """One pass of criterion 7's loop: k alternates shard by shard."""
    runtime = {1: 0.0, 10: 0.0}
    for lo in range(0, len(test), SHARD):
        shard = test[lo : lo + SHARD]
        for k in (1, 10):
            report = evaluate(bundle, instances, shard, k=k, seed=0)
            runtime[k] += report["runtime_mean_s"] * len(shard)
    return runtime[10] / runtime[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="passes of the loop (default 10)")
    parser.add_argument("--bundle", help="load the bundle from this file, or train it and "
                                         "save it here if the file does not exist")
    args = parser.parse_args()
    # the acceptance suite's benchmark_corpus and trained_single fixtures
    instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 200, seed=11)
    split = ingest.make_split(len(instances), seed=7,
                              stratify_labels=[i.label for i in instances])
    if args.bundle and os.path.exists(args.bundle):
        bundle = load_bundle(args.bundle)
    else:
        bundle, _ = train_model(instances, split, SINGLE_CONFIG, seed=3)
        if args.bundle:
            save_bundle(bundle, args.bundle)
    ratios = []
    for run in range(1, args.runs + 1):
        ratios.append(ratio_once(bundle, instances, list(split.test)))
        print(f"run {run}: k10/k1 {ratios[-1]:.3f}", flush=True)
    print(f"median {statistics.median(ratios):.3f}  min {min(ratios):.3f}  "
          f"over {len(ratios)} runs")


if __name__ == "__main__":
    main()
