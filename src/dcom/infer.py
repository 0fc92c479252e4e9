"""Prediction: the k-sample majority vote, and evaluation reports."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import augment
from .core import check_disjoint, check_indices
from .errors import ConfigError
from .features import extract_features
from .nn import Model
from .serialize import ModelBundle
from .train import accuracy, forward_samples, per_class_prf, support_weighted_f1


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray
    label: str
    k: int
    votes: dict | None = None
    latency_s: float = 0.0


def _group_vote(class_vocab, probs, k):
    """(mean distribution, label, votes by label) of each column of a group
    whose probs hold k sample rows per column, the columns in order.

    A column's label is the most frequent argmax of its rows; a tie goes to
    the highest summed probability among the tied labels, then to the lowest
    class id. Its votes are in class-id order, and a single sample (k=1)
    reports none. The whole group is voted in a few array operations: one
    argmax, one bincount of (column, label) pairs and one reshaped sum.
    """
    names = class_vocab.names
    argmaxes = probs.argmax(axis=1)
    if k == 1:
        return [(p, names[c], None) for p, c in zip(probs, argmaxes.tolist())]
    cols, n_classes = len(probs) // k, probs.shape[1]
    summed = probs.reshape(cols, k, n_classes).sum(axis=1)
    pairs = argmaxes + np.repeat(np.arange(cols) * n_classes, k)
    counts = np.bincount(pairs, minlength=cols * n_classes).reshape(cols, n_classes)
    tied = counts == counts.max(axis=1, keepdims=True)
    # argmax takes the first of equal sums, so the lowest class id
    winners = np.where(tied, summed, -np.inf).argmax(axis=1).tolist()
    mean = summed / k  # np.mean's arithmetic, so bit-equal to rows.mean(axis=0)
    return [(p, names[c], {names[label]: n for label, n in enumerate(row) if n})
            for p, c, row in zip(mean, winners, counts.tolist())]


def _predict_columns(bundle: ModelBundle, instances, k, seeds, rows,
                     token_cache) -> list[Prediction]:
    """The k-vote Prediction of each column, its samples forwarded `rows` at a time.

    Column i draws its k samples from default_rng(seeds[i]), so what it votes
    on does not depend on `rows` or on the other columns.  The columns share
    token_cache (value -> token ids) with the caller's other calls.  Each
    latency_s is this call's wall time per column.
    """
    if not instances:
        return []
    t0 = time.perf_counter()
    config = bundle.training
    model = Model(config, bundle.params)
    samples = []
    for instance, seed in zip(instances, seeds):
        samples += augment.inference_inputs(instance, config, k, np.random.default_rng(seed))
    feats = bundle.scaler.transform(extract_features(instances))
    if k > 1:  # each sample's row
        feats = np.repeat(feats, k, axis=0)
    probs = forward_samples(model, samples, feats, bundle.vocab, rows, token_cache)
    voted = _group_vote(bundle.class_vocab, probs, k)
    latency_s = (time.perf_counter() - t0) / len(instances)
    return [Prediction(probabilities=p, label=label, k=k, votes=votes, latency_s=latency_s)
            for p, label, votes in voted]


def predict_kvote(bundle: ModelBundle, instance, k=10, seed=0) -> Prediction:
    """k-sample majority-vote prediction.

    k=1 classifies one full random permutation of the values and reports no
    votes; k>1 votes over k samples of random length (see
    augment.inference_inputs) and reports their mean distribution.  Each vote
    is its own forward, so the latency grows with k.  Each call encodes the
    column's values into a token cache of its own.
    """
    return _predict_columns(bundle, [instance], k, [seed], 1, {})[0]


def _forward_groups(instances, k, config):
    """(start, stop, rows) of each run of columns predict_many predicts
    together, forwarding its samples `rows` at a time.

    A forward's rows grow with its samples in single mode, and with
    concatenation its head's input does: there a run is batch_size columns,
    forwarded batch_size samples at a time. A mean, sum or weighted_sum
    forward's LSTM rows are its distinct slot texts, and a column of n values
    has min(n, k * r) of them at most: there a run is as many consecutive
    columns, batch_size at most, as fit in batch_size * r texts, the most a
    forward of batch_size samples can hold, and it is one forward. A column
    over that bound alone is forwarded batch_size samples at a time.
    """
    size = config.batch_size
    if config.mode == "single" or config.aggregation == "concatenation":
        return [(start, start + size, size) for start in range(0, len(instances), size)]
    cap = size * config.r
    bounds = [min(instance.n, k * config.r) for instance in instances]
    starts, texts = [], 0
    for i, bound in enumerate(bounds):
        if not starts or texts + bound > cap or i - starts[-1] == size:
            starts.append(i)
            texts = 0
        texts += bound
    # only a column alone can be over the bound
    return [(start, stop, size if bounds[start] > cap else k * (stop - start))
            for start, stop in zip(starts, starts[1:] + [len(instances)])]


def predict_many(bundle: ModelBundle, instances, k, seeds) -> list[Prediction]:
    """predict_kvote of every column, column i with seed seeds[i], batched
    across columns for throughput.

    In multi mode with mean, sum or weighted_sum, a run of columns whose
    distinct slot texts fit in those of one batch_size-sample forward runs
    as one forward, so the LSTM meets each text once per run, not once per
    vote; elsewhere the columns go batch_size at a time, their k samples
    each batch_size per forward (_forward_groups). A run's columns are voted
    together, in one pass of array operations over its probabilities
    (_group_vote). A column's k multi samples are drawn in one rng call
    (augment.sample_multi), and a forward's slots get their rows by dict and
    map loops that run in C, with no Python step per slot
    (train.make_batch). In single mode forward_samples takes the samples in
    order of their row length, so a forward runs as many steps as the
    longest of rows of like length. The samples, and so the votes and
    labels, are predict_kvote's; a probability may differ from it in the last bits,
    because a BLAS result depends on the batch's shape and on a row's place
    in it. Every group shares one token cache, which lives for this call
    only, so a value is encoded once per call.
    """
    instances, seeds = list(instances), list(seeds)
    if len(seeds) != len(instances):
        raise ConfigError(f"{len(instances)} columns but {len(seeds)} seeds")
    predictions = []
    token_cache = {}
    for start, stop, rows in _forward_groups(instances, k, bundle.training):
        predictions += _predict_columns(bundle, instances[start:stop], k, seeds[start:stop],
                                        rows, token_cache)
    return predictions


def evaluate(bundle: ModelBundle, instances, test_indices, k=1, seed=0,
             bundle_path=None, n_examples=3) -> dict:
    """Test-set metrics report: weighted F1, accuracy, per-sample runtime,
    bundle size, a per-class table, and misclassified examples for the
    lowest-precision and lowest-recall classes."""
    test_indices = list(test_indices)
    if not test_indices:
        raise ConfigError("empty test set")
    check_indices(test_indices, len(instances), "test")
    check_disjoint([], [], test_indices)  # a repeated column would count twice
    class_vocab = bundle.class_vocab
    for i in test_indices:
        label = instances[i].label
        if label is None:
            raise ConfigError(f"test instance {i} has no label")
        if label not in class_vocab:
            raise ConfigError(
                f"test instance {i} has label {label!r}, which is not among "
                f"the model's classes"
            )
    y_true, y_pred, latencies = [], [], []
    errors = []  # (index, true_id, pred_id)
    for j, i in enumerate(test_indices):
        inst = instances[i]
        pred = predict_kvote(bundle, inst, k, np.random.default_rng([seed, j]).integers(2**63))
        true_id = class_vocab.id_of(inst.label)
        pred_id = class_vocab.id_of(pred.label)
        y_true.append(true_id)
        y_pred.append(pred_id)
        latencies.append(pred.latency_s)
        if pred_id != true_id:
            errors.append((i, true_id, pred_id))

    n_classes = len(class_vocab)
    precision, recall, f1, support = per_class_prf(y_true, y_pred, n_classes)
    table = [
        {
            "class": class_vocab.name_of(c),
            "precision": float(precision[c]),
            "recall": float(recall[c]),
            "f1": float(f1[c]),
            "support": int(support[c]),
        }
        for c in range(n_classes)
        if support[c] > 0
    ]

    def _examples(class_id, as_predicted):
        out = []
        for i, true_id, pred_id in errors:
            hit = pred_id == class_id if as_predicted else true_id == class_id
            if hit:
                out.append(
                    {
                        "values": list(instances[i].values[:10]),
                        "true_type": class_vocab.name_of(true_id),
                        "predicted_type": class_vocab.name_of(pred_id),
                    }
                )
            if len(out) >= n_examples:
                break
        return out

    # A class that is never predicted has no false positives to show, so it is
    # reported purely as a recall failure; rank precision only over classes
    # that actually appear among the predictions.
    predicted_ids = set(y_pred)
    precision_rows = [
        row for row in table if class_vocab.id_of(row["class"]) in predicted_ids
    ] or table
    low_precision = min(precision_rows, key=lambda r: r["precision"])["class"]
    low_recall = min(table, key=lambda r: r["recall"])["class"]
    report = {
        "k": k,
        "f1_weighted": support_weighted_f1(y_true, y_pred, n_classes),
        "accuracy": accuracy(y_true, y_pred),
        "runtime_mean_s": float(np.mean(latencies)),
        "runtime_std_s": float(np.std(latencies)),
        "size_mb": (os.path.getsize(bundle_path) / 1e6) if bundle_path else None,
        "per_class": table,
        "low_precision": {
            "class": low_precision,
            "examples": _examples(class_vocab.id_of(low_precision), as_predicted=True),
        },
        "low_recall": {
            "class": low_recall,
            "examples": _examples(class_vocab.id_of(low_recall), as_predicted=False),
        },
    }
    return report
