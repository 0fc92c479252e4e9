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

With `--against DIR` it runs the whole protocol a change reports instead:
`--pairs` invocations per side, each in a subprocess, alternating which side
goes first. This side is this checkout's script with its `src` first on
`PYTHONPATH`; the other is DIR's own `tests/kvote_ratio.py` with DIR's `src`.
Both take the same `--runs` and `--bundle`. It prints each invocation's
median as it comes, then per side the medians, their median and the lowest
ratio of any run.

    PYTHONPATH=src python tests/kvote_ratio.py --runs 3 --bundle crit7.bundle \\
        --against ../parent --pairs 10

Pytest does not collect this file.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

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


def invoke(checkout, runs, bundle):
    """One invocation of checkout's own script, with checkout's src first on
    the import path: the (median, min) line it ends with."""
    cmd = [sys.executable, str(checkout / "tests" / "kvote_ratio.py"), "--runs", str(runs)]
    if bundle:
        cmd += ["--bundle", bundle]
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True)
    if done.returncode:
        sys.exit(f"{cmd[1]} exited {done.returncode}:\n{done.stderr}")
    words = done.stdout.splitlines()[-1].split()  # median M  min m  over R runs
    return float(words[1]), float(words[3])


def against(other, args):
    """The criterion-7 protocol over this checkout and another, side by side."""
    sides = {"this": Path(__file__).resolve().parent.parent, "other": other.resolve()}
    bundle = args.bundle and str(Path(args.bundle).resolve())
    results = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            results[side].append(invoke(sides[side], args.runs, bundle))
        print(f"pair {pair + 1} ({order[0]} first): "
              + "  ".join(f"{side} {results[side][-1][0]:.3f}" for side in sides), flush=True)
    for side, checkout in sides.items():
        medians = [median for median, _ in results[side]]
        print(f"{side:<5} {checkout}: medians {' '.join(f'{m:.2f}' for m in medians)}; "
              f"median of medians {statistics.median(medians):.3f}, "
              f"min {min(low for _, low in results[side]):.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="passes of the loop (default 10)")
    parser.add_argument("--bundle", help="load the bundle from this file, or train it and "
                                         "save it here if the file does not exist")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="run the protocol against the checkout in DIR")
    parser.add_argument("--pairs", type=int, default=10,
                        help="invocations per side with --against (default 10)")
    args = parser.parse_args()
    if args.against:
        return against(args.against, args)
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
