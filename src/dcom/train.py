"""Training loop: cross-entropy, Adam, plateau LR reduction, F1 metrics.

Each epoch draws one fresh permutation sample per training column, so the
model sees a different ordering of every column's values each pass.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import augment, tokenizers
from .core import ClassVocabulary, TrainingConfig, check_disjoint, check_indices
from .errors import ConfigError, DiagnosticError
from .features import FeatureScaler, extract_features
from .nn import Model, init_params, stack_lstm, zeros_like_params
from .serialize import ModelBundle


# ---------------------------------------------------------------------------
# Loss


def cross_entropy_batch(probs, labels, class_weights=None):
    """Mean weighted cross-entropy over a batch and its gradient at the logits.

    loss = mean(-w * log(p_label)) with p clamped at 1e-12, and
    dlogits = w * (p - onehot(label)) / B.
    """
    B, C = probs.shape
    labels = np.asarray(labels)
    if np.any((labels < 0) | (labels >= C)):
        raise ConfigError(f"labels must lie in [0, {C}), got {labels.tolist()}")
    w = np.ones(B) if class_weights is None else np.asarray(class_weights)[labels]
    p_true = np.clip(probs[np.arange(B), labels], 1e-12, None)
    loss = float(np.mean(-w * np.log(p_true)))
    dlogits = probs * w[:, None]
    dlogits[np.arange(B), labels] -= w
    return loss, dlogits / B


# ---------------------------------------------------------------------------
# Optimizer and scheduler

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# a validation F1 must beat the best by more than this to count as improving
PLATEAU_MIN_DELTA = 1e-6


@dataclass
class OptimizerState:
    """Adam's moments, flat over the parameters in the gradients' key order,
    plus the current learning rate. scratch holds two buffers of the same
    size that each update works in."""

    learning_rate: float = 1e-4
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple = ()


def adam_step(params, grads, state: OptimizerState):
    """One bias-corrected Adam update, in place on params.

    The gradients are concatenated once, in their key order, which must stay
    the same from step to step. The moments and the update are then computed
    over that flat array, in place and in the two scratch buffers, each
    element by the operations and in the order of the per-array update
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g,
    p -= lr * m_hat / (sqrt(v_hat) + eps). So the update is bit-equal to the
    per-array one without its six temporaries per parameter. A non-finite
    gradient aborts before any state changes."""
    g = np.concatenate([grad.ravel() for grad in grads.values()])
    if not np.all(np.isfinite(g)):
        raise DiagnosticError("non-finite gradient; update aborted")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
        state.scratch = (np.empty_like(g), np.empty_like(g))
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, (a, update) = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(g, 1 - b1, out=a)
    v *= b2
    np.multiply(g, 1 - b2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, 1 - b1**t, out=update)  # m_hat
    update *= state.learning_rate
    np.divide(v, 1 - b2**t, out=a)  # v_hat
    np.sqrt(a, out=a)
    a += ADAM_EPS
    update /= a
    at = 0
    for name, grad in grads.items():
        params[name] -= update[at : at + grad.size].reshape(grad.shape)
        at += grad.size


@dataclass
class PlateauScheduler:
    """Scale the learning rate by `factor` after `patience` consecutive
    non-improving epochs."""

    learning_rate: float
    factor: float = 0.5
    patience: int = 5
    best: float = -np.inf
    epochs_since_improvement: int = 0

    def step(self, val_metric: float) -> float:
        if val_metric > self.best + PLATEAU_MIN_DELTA:
            self.best = val_metric
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement >= self.patience:
                self.learning_rate *= self.factor
                self.epochs_since_improvement = 0
        return self.learning_rate


# ---------------------------------------------------------------------------
# Metrics


def confusion_counts(y_true, y_pred, n_classes):
    if len(y_true) != len(y_pred) or len(y_true) == 0:
        raise ConfigError("label lists must be non-empty and equal length")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        matrix[t, p] += 1
    return matrix


def per_class_prf(y_true, y_pred, n_classes):
    """Per-class precision, recall, F1 and support (zero where undefined)."""
    matrix = confusion_counts(y_true, y_pred, n_classes)
    tp = np.diag(matrix).astype(np.float64)
    pred_count = matrix.sum(axis=0).astype(np.float64)
    support = matrix.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_count, out=np.zeros(n_classes), where=pred_count > 0)
    recall = np.divide(tp, support, out=np.zeros(n_classes), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(n_classes), where=denom > 0)
    return precision, recall, f1, support


def support_weighted_f1(y_true, y_pred, n_classes) -> float:
    """Per-class F1 averaged with weights equal to each class's true count."""
    _, _, f1, support = per_class_prf(y_true, y_pred, n_classes)
    total = support.sum()
    return float((f1 * support).sum() / total)


def accuracy(y_true, y_pred) -> float:
    if len(y_true) == 0:
        raise ConfigError("empty label lists")
    return float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))


# ---------------------------------------------------------------------------
# Training configuration and loop


@dataclass(frozen=True)
class EpochReport:
    """One epoch's summary. grad_norm_max is the largest global L2 norm of the
    gradients over the epoch's steps, before the Adam update: exploding
    gradients show first there (Pascanu et al. 2013). truncated_frac is the
    share of the epoch's training rows that make_batch cut: single samples
    cut at max_len, or a multi batch's distinct slot texts cut at
    max_len_per_slot. unk_frac is the share of [UNK] ids among the tokens
    of the epoch's training rows, as cut: a vocabulary that misses much of
    the data shows there. All three are 0 for an epoch of no steps."""

    epoch: int
    train_loss: float
    val_accuracy: float
    val_f1: float
    learning_rate: float
    grad_norm_max: float
    truncated_frac: float
    unk_frac: float
    wall_time_s: float


def _epoch_rng(seed, epoch, tag):
    return np.random.default_rng([seed, epoch, tag])


def _token_rows(row_values, cut, vocab, token_cache):
    """Each row's ids, its values' ids joined by SEP_ID and cut at cut, and
    the number of rows the cut shortened. token_cache maps a value to its
    uncut ids (tokenizers.encode_value)."""
    rows, truncated = [], 0
    for values in row_values:
        row = []
        for j, value in enumerate(values):
            if j:  # by position, so a value with no ids keeps its [SEP]
                row.append(tokenizers.SEP_ID)
            if len(row) > cut:
                break
            value_ids = token_cache.get(value)
            if value_ids is None:
                value_ids = token_cache[value] = tuple(tokenizers.encode_value(vocab, value))
            row.extend(value_ids)
        truncated += len(row) > cut
        rows.append(row[:cut])
    return rows, truncated


OUTSIDE_COLUMN = "a multi sample's index lies outside its column"


def _multi_rows(samples, config: TrainingConfig, vocab, token_cache):
    """make_batch's multi rows, one per distinct real slot text cut at
    max_len_per_slot, the number of rows the cut shortened, occ (the row of
    each real slot, sample by sample in slot order) and counts (each
    sample's number of real slots).

    Each sample's real slots are read from its column at its indices, at
    most r of them, so a column is never read whole.  The distinct texts get
    their rows in first-seen order, and each slot its row, by dict and map
    loops that run in C: the Python steps go one per sample and one per
    distinct text, none per slot."""
    r = config.r
    idxs = [s.idx for s in samples]
    counts = np.fromiter(map(len, idxs), np.int64, len(idxs))
    if max(map(len, idxs)) > r or any(s.r != r for s in samples):  # cheaper than a reduction
        raise ConfigError(f"multi samples must have r={r} slots, at most r of them real")
    if min(itertools.chain.from_iterable(idxs), default=0) < 0:
        raise ConfigError(OUTSIDE_COLUMN)
    texts = []  # each real slot's text, sample by sample
    try:
        for s in samples:
            texts += map(s.column.__getitem__, s.idx)
    except IndexError:
        raise ConfigError(OUTSIDE_COLUMN) from None
    row_of = dict(zip(dict.fromkeys(texts), itertools.count()))  # distinct text -> its row
    occ = np.fromiter(map(row_of.__getitem__, texts), np.int64, len(texts))
    whole = []  # each row's uncut ids
    for text in row_of:
        text_ids = token_cache.get(text)
        if text_ids is None:
            text_ids = token_cache[text] = tuple(tokenizers.encode_value(vocab, text))
        whole.append(text_ids)
    cut = config.max_len_per_slot
    return [row[:cut] for row in whole], sum(len(row) > cut for row in whole), occ, counts


def make_batch(samples, feats, config: TrainingConfig, vocab, token_cache):
    """Tokenize a list of augment samples into one model batch dict.

    A row is its values' ids joined by SEP_ID and cut: a single sample's at
    max_len, one multi slot text's at max_len_per_slot.  Single ids (B, T)
    and lengths (B,) hold one row per sample, PAD_ID past its length.  Multi
    ones are (U, T) and (U,), one row per distinct real slot text in
    first-seen order; a sample's real slots are a prefix of its r slots, so
    counts (B,) holds each sample's number of them and occ (S,) the row of
    each, sample by sample in slot order, found with no Python step per slot
    (_multi_rows).  tok_mask, arange(T) < lengths, is kept only for the
    bench's forward counter.  A multi sample's r must be config.r and its
    indices must lie in its column (ConfigError).  T is the longest row, at least 1.  truncated counts the
    rows that were cut.  SEP_ID enters a row only between two values; a
    "<SEP>" inside a value is text.  token_cache maps a value to its uncut ids
    (tokenizers.encode_value), so each value is tokenized once per cache; the
    caller scopes it to one train_model or _predict_columns call.  feats is
    an array of the samples' feature rows, or a list of them.
    """
    if config.mode == "single":
        rows, truncated = _token_rows([s.values for s in samples], config.max_len, vocab,
                                      token_cache)
        batch = {}
    else:
        rows, truncated, occ, counts = _multi_rows(samples, config, vocab, token_cache)
        batch = {"occ": occ, "counts": counts}
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    tok_mask = np.arange(max(1, lengths.max())) < lengths[:, None]
    ids = np.full(tok_mask.shape, tokenizers.PAD_ID, dtype=np.int64)
    ids[tok_mask] = np.fromiter(itertools.chain.from_iterable(rows), np.int64, lengths.sum())
    batch.update(ids=ids, lengths=lengths, tok_mask=tok_mask,
                 feats=np.asarray(feats, dtype=np.float64), truncated=truncated)
    return batch


def forward_samples(model, samples, feats, vocab, rows, token_cache):
    """Inference probabilities, one row per sample (samples[i] with scaled
    features feats[i]), forwarded `rows` samples at a time through make_batch;
    an inference forward keeps no step history, and one of more than
    nn.INFER_BLOCK positions is packed and takes its gates a block of
    INFER_BLOCK stepped positions at a time, so a forward holds little beyond
    one block's gates, whatever its rows and length, and that dies before
    the next forward runs.

    In single mode a forward's rows are the samples themselves, and a forward
    runs as many steps as its longest row. So more than one forward of more
    than one row (validation, predict_many) takes the samples in order of
    their row length, a stable sort, and writes the probabilities back in
    the caller's order. A row's arithmetic does not depend on which rows
    share its forward; its rounding does only where the BLAS rounds a row by
    its place. So the probabilities are the caller-order ones, bit for bit,
    when every forward holds the same number of rows, a multiple of 4
    (OpenBLAS's Haswell kernels compute a product's rows in blocks of 4), and
    a row of 2 tokens at least (a row's input product of one row goes to
    gemv). Validation's 320 rows in forwards of 32 are such a case, and
    seeded bundles do not change; elsewhere a probability may move in its
    last bits. A multi forward's rows are its distinct slot texts, each at
    most max_len_per_slot long, which ordering the samples does not shorten.
    rows == 1 (predict_kvote) keeps the caller's order.
    """
    config = model.config
    order = None
    if config.mode == "single" and 1 < rows < len(samples):
        token_rows, _ = _token_rows([s.values for s in samples], config.max_len, vocab,
                                    token_cache)
        order = np.argsort([len(row) for row in token_rows], kind="stable")
        samples, feats = [samples[i] for i in order], feats[order]
    probs = np.vstack([
        model.forward(make_batch(samples[start : start + rows], feats[start : start + rows],
                                 config, vocab, token_cache), train_mode=False)[0]
        for start in range(0, len(samples), rows)])
    if order is not None:
        probs[order] = probs.copy()
    return probs


def _train_step(model, batch, labels, class_weights, dropout_rng, opt):
    """One forward, backward and Adam update; returns (loss, gradient norm).
    The training forward is the only one that keeps its step history, for
    backward to read. Its cache dies with this call, so it is never alive
    beside the next step's forward or the validation pass, whose inference
    forwards keep none."""
    probs, cache = model.forward(batch, train_mode=True, dropout_rng=dropout_rng)
    loss, dlogits = cross_entropy_batch(probs, labels, class_weights)
    grads = model.backward(cache, dlogits)
    del cache
    grad_norm = float(np.sqrt(sum(np.vdot(g, g) for g in grads.values())))
    adam_step(model.params, grads, opt)
    return loss, grad_norm


def train_model(instances, split, config: TrainingConfig, seed=0, log_callback=None):
    """Train on the split's train set, select on validation F1.

    Returns (ModelBundle, list of EpochReport). A run that diverges fails
    loudly: the forward pass raises DiagnosticError on non-finite logits and
    adam_step on non-finite gradients, while the clamped loss stays finite.
    """
    for part in ("train", "validation", "test"):
        check_indices(getattr(split, part), len(instances), part)
    check_disjoint(split.train, split.validation, split.test)
    if config.epochs and not split.validation:
        raise ConfigError("the validation set is empty: each epoch is scored on it")
    for part in ("train", "validation"):
        unlabeled = [i for i in getattr(split, part) if instances[i].label is None]
        if unlabeled:
            raise ConfigError(f"{part} instance {unlabeled[0]} has no label: train and "
                              f"validation columns must be labeled")
    labeled = (*split.train, *split.validation)
    class_vocab = ClassVocabulary.from_labels(instances[i].label for i in labeled)
    if len(class_vocab) < 2:
        raise ConfigError(f"training needs 2 classes at least; the train and validation "
                          f"columns have {list(class_vocab.names)}")

    # row j holds split.train[j]'s features, then the validation columns follow
    feats_raw = extract_features([instances[i] for i in labeled])
    scaler = FeatureScaler.fit(feats_raw[: len(split.train)])
    scaled = scaler.transform(feats_raw)

    corpus = (" ".join(instances[i].values) for i in split.train)
    vocab = tokenizers.build_vocab(corpus, config.tokenizer, config.vocab_budget)

    model = Model(config, init_params(config, len(vocab), len(class_vocab),
                                      np.random.default_rng(seed)))

    class_weights = None
    if config.use_class_weights:
        counts = np.zeros(len(class_vocab))
        for i in split.train:
            counts[class_vocab.id_of(instances[i].label)] += 1
        class_weights = counts.sum() / (len(class_vocab) * np.maximum(counts, 1))

    opt = OptimizerState(learning_rate=config.learning_rate)
    sched = PlateauScheduler(config.learning_rate, config.plateau_factor,
                             config.plateau_patience)
    val_labels = [class_vocab.id_of(instances[i].label) for i in split.validation]
    val_feats = scaled[len(split.train) :]

    reports = []
    best_f1 = -1.0
    # an untrained bundle predicts the uniform distribution; any epoch beats it
    best_params = zeros_like_params(model.params)
    best_epoch = 0
    stale = 0
    token_cache = {}  # column value -> its token ids, for this run only
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        sample_rng = _epoch_rng(seed, epoch, 0)
        drop_rng = _epoch_rng(seed, epoch, 1)
        order = _epoch_rng(seed, epoch, 2).permutation(len(split.train))
        losses = []
        grad_norm_max = 0.0
        n_rows = n_truncated = n_tokens = n_unk = 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            chunk = [split.train[j] for j in rows]
            samples = [augment.training_sample(instances[i], config, sample_rng) for i in chunk]
            batch = make_batch(samples, scaled[rows], config, vocab, token_cache)
            n_rows += len(batch["ids"])
            n_truncated += batch["truncated"]
            n_tokens += int(batch["lengths"].sum())
            n_unk += np.count_nonzero(batch["ids"] == tokenizers.UNK_ID)
            labels = np.asarray([class_vocab.id_of(instances[i].label) for i in chunk])
            loss, grad_norm = _train_step(model, batch, labels, class_weights, drop_rng, opt)
            losses.append(loss)
            grad_norm_max = max(grad_norm_max, grad_norm)

        val_rng = _epoch_rng(seed, epoch, 3)
        val_samples = [augment.inference_inputs(instances[i], config, 1, val_rng)[0]
                       for i in split.validation]
        val_probs = forward_samples(model, val_samples, val_feats, vocab, config.batch_size,
                                    token_cache)
        val_pred = np.argmax(val_probs, axis=1).tolist()
        val_f1 = support_weighted_f1(val_labels, val_pred, len(class_vocab))
        val_acc = accuracy(val_labels, val_pred)
        opt.learning_rate = sched.step(val_f1)
        report = EpochReport(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            val_accuracy=val_acc,
            val_f1=val_f1,
            learning_rate=opt.learning_rate,
            grad_norm_max=grad_norm_max,
            truncated_frac=n_truncated / n_rows if n_rows else 0.0,
            unk_frac=n_unk / n_tokens if n_tokens else 0.0,
            wall_time_s=time.perf_counter() - t0,
        )
        reports.append(report)
        if log_callback is not None:
            log_callback(report)
        stale = 0 if val_f1 > best_f1 else stale + 1
        if val_f1 >= best_f1:  # among equal-F1 epochs keep the latest (lower train loss)
            best_f1, best_epoch = val_f1, epoch
            # a deep copy keeps no views: restack its LSTM weights
            best_params = copy.deepcopy(model.params)
            stack_lstm(best_params)
        if stale >= config.early_stop_patience:
            break

    bundle = ModelBundle(
        params=best_params,
        vocab=vocab,
        scaler=scaler,
        class_vocab=class_vocab,
        training=config,
        metadata={
            "seed": seed,
            "epochs_run": len(reports),
            "best_epoch": best_epoch,
            "best_val_f1": max(best_f1, 0.0),
        },
    )
    return bundle, reports
