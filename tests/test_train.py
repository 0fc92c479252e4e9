import dataclasses
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcom
from dcom import augment, ingest
from dcom import tokenizers as tk
from dcom.core import (AGGREGATIONS, MAX_SLOTS, TOKENIZER_KINDS, ColumnInstance,
                       make_instance)
from dcom.errors import ConfigError, DiagnosticError
from dcom.features import extract_features
from dcom.nn import Model, init_params
from dcom.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EpochReport,
    OptimizerState,
    PlateauScheduler,
    TrainingConfig,
    accuracy,
    adam_step,
    cross_entropy_batch,
    forward_samples,
    make_batch,
    support_weighted_f1,
    train_model,
)
from conftest import TINY_CONFIG
from test_nn import one_row_per_occurrence


def strip_time(reports):
    """Zero the wall-time field so reports can be compared across runs."""
    return [dataclasses.replace(r, wall_time_s=0.0) for r in reports]


def brute_force_weighted_f1(y_true, y_pred, n_classes):
    """Independent confusion-matrix implementation used as the metric oracle."""
    total = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1 * support
    return total / len(y_true)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        loss, _ = cross_entropy_batch(probs, np.array([1]))
        assert loss == 0.0

    def test_uniform_78(self):
        probs = np.full((1, 78), 1 / 78)
        loss, _ = cross_entropy_batch(probs, np.array([13]))
        assert loss == pytest.approx(math.log(78), abs=1e-9)
        assert loss == pytest.approx(4.3567, abs=1e-4)

    def test_gradient_identity(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        _, dlogits = cross_entropy_batch(probs, np.array([2]))
        np.testing.assert_allclose(dlogits, probs - np.array([[0, 0, 1.0]]), atol=1e-12)

    def test_class_weight_scales(self):
        # the weight of a sample is the weight of its label's class
        probs = np.array([[0.2, 0.5, 0.3]])
        loss1, g1 = cross_entropy_batch(probs, np.array([0]), np.array([1.0, 5.0, 5.0]))
        loss2, g2 = cross_entropy_batch(probs, np.array([0]), np.array([2.0, 5.0, 5.0]))
        assert loss2 == pytest.approx(2 * loss1)
        np.testing.assert_allclose(g2, 2 * g1)

    def test_label_out_of_range(self):
        # -1 would otherwise index the last class and 2 past the end
        for label in (2, -1):
            with pytest.raises(ConfigError, match="labels"):
                cross_entropy_batch(np.array([[0.9, 0.1]]), np.array([label]))

    def test_batch_mean(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        loss, dlogits = cross_entropy_batch(probs, np.array([0, 1]))
        expected = -(math.log(0.9) + math.log(0.6)) / 2
        assert loss == pytest.approx(expected, abs=1e-12)
        assert dlogits.shape == (2, 2)


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = OptimizerState(learning_rate=1e-4)
        adam_step(params, {"w": np.array([1.0])}, state)
        # bias-corrected first step moves by ~lr regardless of gradient scale
        assert abs(params["w"][0] + 1e-4) < 1e-9

    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.5])}
        adam_step(params, {"w": np.array([0.0])}, OptimizerState())
        assert params["w"][0] == 1.5

    def test_deterministic(self):
        def run():
            params = {"w": np.arange(3, dtype=float)}
            state = OptimizerState(learning_rate=1e-2)
            for _ in range(5):
                adam_step(params, {"w": params["w"] * 0.1 + 1}, state)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_aborts(self):
        from dcom.errors import DiagnosticError

        with pytest.raises(DiagnosticError):
            adam_step({"w": np.zeros(1)}, {"w": np.array([np.nan])}, OptimizerState())


def reference_adam_step(params, grads, m, v, t, learning_rate):
    """The per-array Adam update that adam_step's flat one replaced, kept as
    its exact reference; m and v map each name to its moments."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, g in grads.items():
        if name not in m:
            m[name] = np.zeros_like(g)
            v[name] = np.zeros_like(g)
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**t)
        v_hat = v[name] / (1 - b2**t)
        params[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class TestFlatAdam:
    @settings(max_examples=200, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 5), max_size=3), min_size=1, max_size=5),
           rates=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6),
           scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e4]), seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_per_array_update(self, shapes, rates, scale, seed):
        """adam_step over one flat array updates every parameter to the bits
        of the per-array update, step after step, while the learning rate
        changes between steps."""
        rng = np.random.default_rng(seed)
        params = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        ref = {name: p.copy() for name, p in params.items()}
        state, m, v = OptimizerState(), {}, {}
        for t, rate in enumerate(rates, start=1):
            grads = {name: scale * rng.normal(size=p.shape) for name, p in params.items()}
            state.learning_rate = rate
            adam_step(params, grads, state)
            reference_adam_step(ref, grads, m, v, t, rate)
            assert state.step_count == t
            for name in params:
                assert params[name].tobytes() == ref[name].tobytes(), (t, name)

    def test_nonfinite_gradient_changes_nothing(self):
        params = {"a": np.ones(3), "b": np.ones((2, 2))}
        state = OptimizerState(learning_rate=1e-2)
        adam_step(params, {"a": np.ones(3), "b": np.ones((2, 2))}, state)
        before = ({k: p.copy() for k, p in params.items()}, state.m.copy(), state.v.copy())
        with pytest.raises(DiagnosticError):
            adam_step(params, {"a": np.ones(3), "b": np.array([[1.0, np.inf], [0, 0]])}, state)
        assert state.step_count == 1
        np.testing.assert_array_equal(state.m, before[1])
        np.testing.assert_array_equal(state.v, before[2])
        for name in params:
            np.testing.assert_array_equal(params[name], before[0][name])


class TestPlateauScheduler:
    def test_six_flat_epochs_halve(self):
        sched = PlateauScheduler(learning_rate=1e-4)
        lrs = [sched.step(0.5) for _ in range(6)]
        assert lrs[:5] == [1e-4] * 5
        assert lrs[5] == pytest.approx(5e-5)

    def test_improving_keeps_lr(self):
        sched = PlateauScheduler(learning_rate=1e-4)
        for metric in np.linspace(0.1, 0.9, 10):
            assert sched.step(metric) == 1e-4

    def test_improvement_resets_patience(self):
        sched = PlateauScheduler(learning_rate=1e-4)
        sched.step(0.5)
        for _ in range(4):
            sched.step(0.5)
        assert sched.step(0.6) == 1e-4
        assert sched.epochs_since_improvement == 0

    def test_monotone_non_increasing(self):
        sched = PlateauScheduler(learning_rate=1e-3)
        rng = np.random.default_rng(0)
        lrs = [sched.step(float(m)) for m in rng.random(60)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))



class TestMetrics:
    def test_perfect(self):
        assert support_weighted_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_case(self):
        # true [A,A,A,B], pred [A,A,B,B] -> (3*0.8 + 1*(2/3))/4
        score = support_weighted_f1([0, 0, 0, 1], [0, 0, 1, 1], 2)
        assert score == pytest.approx(0.7667, abs=1e-4)

    def test_all_wrong_class(self):
        assert support_weighted_f1([0, 0], [1, 1], 2) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            C = int(rng.integers(2, 7))
            y_true = rng.integers(0, C, size=n).tolist()
            y_pred = rng.integers(0, C, size=n).tolist()
            got = support_weighted_f1(y_true, y_pred, C)
            assert got == pytest.approx(brute_force_weighted_f1(y_true, y_pred, C), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            support_weighted_f1([], [], 2)
        with pytest.raises(ConfigError):
            accuracy([], [])


class TestTrainingConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            TrainingConfig.from_dict({"learning_rte": 0.1})

    @pytest.mark.parametrize("key,value", [
        ("epochs", 3.5), ("use_class_weights", 1), ("max_len", True), ("mode", None),
        ("dense_widths", [8, "4"]), ("learning_rate", "0.1"),
    ])
    def test_wrong_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainingConfig.from_dict({key: value})

    @pytest.mark.parametrize("key", [
        "batch_size", "max_len", "max_len_per_slot", "r", "vocab_budget", "plateau_patience",
        "early_stop_patience", "embedding_dim", "hidden_size", "feature_dim",
    ])
    def test_below_one_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            TrainingConfig.from_dict({key: 0})
        with pytest.raises(ConfigError, match=key):
            TrainingConfig(**{key: -3})
        assert getattr(TrainingConfig(**{key: 1}), key) == 1

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainingConfig.from_dict({"epochs": -1})
        assert TrainingConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize("key,bad,good", [
        ("learning_rate", [0.0, -1.0, float("nan")], [1e-12, 1e200]),
        ("plateau_factor", [0.0, -0.5, 1.5, float("nan")], [1e-9, 1.0]),
    ])
    def test_rate_ranges(self, key, bad, good):
        # the scheduler multiplies the rate by plateau_factor with no floor, so
        # a rate that is not positive, or a factor outside (0, 1], is refused
        for value in bad:
            with pytest.raises(ConfigError, match=key):
                TrainingConfig(**{key: value})
        for value in good:
            assert getattr(TrainingConfig.from_dict({key: value}), key) == value

    @pytest.mark.parametrize("key,value", [
        ("mode", "bogus"), ("multi_mode", "bogus"), ("tokenizer", "bpe"),
        ("aggregation", "max"), ("dropout", 1.5), ("dropout", -0.1), ("dropout", 1.0),
        ("dropout", float("nan")), ("dense_widths", (8, 0)),
    ])
    def test_value_outside_its_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainingConfig(**{key: value})

    def test_slot_cap_in_multi_mode(self):
        with pytest.raises(ConfigError, match=f"'r' must be <= {MAX_SLOTS}"):
            TrainingConfig(mode="multi", r=MAX_SLOTS + 1)
        assert TrainingConfig(mode="multi", r=MAX_SLOTS).r == MAX_SLOTS
        # a single-mode network has no slots
        assert TrainingConfig(r=MAX_SLOTS + 1).r == MAX_SLOTS + 1

    def test_int_passes_for_float(self):
        assert TrainingConfig.from_dict({"learning_rate": 1}).learning_rate == 1

    def test_round_trip(self):
        config = TrainingConfig(mode="multi", r=7, dense_widths=(8, 4))
        assert TrainingConfig.from_dict(config.to_dict()) == config


VOCABS = {
    kind: tk.build_vocab(["ab ba 1:1 a-b 11 aab b1", "ba ab a:b"], kind, 30)
    for kind in TOKENIZER_KINDS
}


def reference_ids(vocab, values):
    """Uncut ids of a row: each value's own ids, SEP_ID between two values."""
    ids = []
    for j, value in enumerate(values):
        ids += [tk.SEP_ID] * (j > 0) + tk.encode_value(vocab, value)
    return ids


def full_width_batch(samples, feats, config, vocab):
    """The reference arrays: every row encoded on its own, cut and padded to
    its mode's max length, nothing trimmed. Multi ids and tok_mask are per
    slot, (B, R, max_len_per_slot), and slot_mask marks the real slots."""
    if config.mode == "single":
        rows, width = [[s.values] for s in samples], config.max_len
    else:
        rows, width = [[(t,) for t in s.texts] for s in samples], config.max_len_per_slot
    cut = [[reference_ids(vocab, values)[:width] for values in row] for row in rows]
    batch = {
        "ids": np.array([[ids + [tk.PAD_ID] * (width - len(ids)) for ids in row] for row in cut]),
        "tok_mask": np.array([[[1] * len(ids) + [0] * (width - len(ids)) for ids in row]
                              for row in cut]),
        "feats": np.stack(feats),
    }
    if config.mode == "single":
        batch["ids"], batch["tok_mask"] = batch["ids"][:, 0], batch["tok_mask"][:, 0]
    else:
        batch["slot_mask"] = np.array([s.pad_mask for s in samples], dtype=bool)
    return batch


# values that meet the separator: empty, blank, <SEP> and <\SEP> as text, the
# reserved token names, and halves of " <SEP> " that a join could complete
edge_value = st.one_of(
    st.sampled_from(["", " ", " \t ", "<SEP>", " <SEP> ", "<\\SEP>", "a <SEP> b", "<SEP><SEP>",
                     "[SEP]", "a [PAD] [UNK]"]),
    st.text(alphabet="ab1 ", max_size=5).map(lambda v: v + " <SEP"),
    st.text(alphabet="ab1 ", max_size=5).map(lambda v: "> " + v),
)
value = st.one_of(st.text(alphabet="ab1:- ", max_size=14), edge_value)
columns = st.lists(st.lists(value, min_size=1, max_size=7), min_size=1, max_size=5)


def draw_samples(cols, config, seed):
    rng = np.random.default_rng(seed)
    # every other column is built directly, without make_instance
    instances = [ColumnInstance(tuple(values)) if i % 2 else make_instance(values)
                 for i, values in enumerate(cols)]
    return [augment.training_sample(inst, config, rng) for inst in instances]


class TestMakeBatch:
    @given(cols=columns, mode=st.sampled_from(["single", "multi"]),
           kind=st.sampled_from(TOKENIZER_KINDS), r=st.integers(1, 6),
           multi_mode=st.sampled_from(["pad", "with_replacement"]),
           max_len=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_trimmed_prefix_of_full_width(self, cols, mode, kind, r, multi_mode, max_len, seed):
        config = TrainingConfig(mode=mode, r=r, multi_mode=multi_mode, max_len=max_len,
                                max_len_per_slot=max_len)
        samples = draw_samples(cols, config, seed)
        feats = [np.full(19, float(i)) for i in range(len(samples))]
        full = full_width_batch(samples, feats, config, VOCABS[kind])
        cache = {}
        # the second call reads every value from the cache the first filled
        for batch in [make_batch(samples, feats, config, VOCABS[kind], cache) for _ in "ab"]:
            T = batch["ids"].shape[-1]
            assert T == max(1, int(full["tok_mask"].sum(axis=-1).max()))
            assert np.all(full["ids"][..., T:] == tk.PAD_ID)
            assert np.all(full["tok_mask"][..., T:] == 0)
            np.testing.assert_array_equal(batch["feats"], full["feats"])
            # a row is cut where its values' whole encoding is longer than the cut
            cut = config.max_len if mode == "single" else config.max_len_per_slot
            rows = ([s.values for s in samples] if mode == "single" else list(dict.fromkeys(
                (t,) for s in samples for t, real in zip(s.texts, s.pad_mask) if real)))
            whole = [len(reference_ids(VOCABS[kind], values)) for values in rows]
            assert batch["truncated"] == sum(n > cut for n in whole)
            if mode == "single":
                assert sorted(batch) == sorted([*full, "truncated"])
                assert batch["ids"].shape == full["ids"].shape[:-1] + (T,)
                np.testing.assert_array_equal(batch["ids"], full["ids"][..., :T])
                np.testing.assert_array_equal(batch["tok_mask"], full["tok_mask"][..., :T])
                continue
            assert sorted(batch) == ["feats", "ids", "slots", "tok_mask", "truncated"]
            slots, real = batch["slots"], full["slot_mask"]
            assert slots.shape == real.shape
            np.testing.assert_array_equal(slots < 0, ~real)
            assert np.all(slots[~real] == -1)
            # every real slot's row is its text's encoding on the first T positions
            np.testing.assert_array_equal(batch["ids"][slots[real]], full["ids"][real][:, :T])
            np.testing.assert_array_equal(batch["tok_mask"][slots[real]],
                                          full["tok_mask"][real][:, :T])
            # one row per distinct real text, numbered in first-seen order
            texts = [t for s, m in zip(samples, real) for t, r in zip(s.texts, m) if r]
            first_seen = list(dict.fromkeys(texts))
            assert batch["ids"].shape == (len(first_seen), T)
            np.testing.assert_array_equal(slots[real], [first_seen.index(t) for t in texts])

    @given(values=st.lists(value, min_size=1, max_size=7),
           kind=st.sampled_from(TOKENIZER_KINDS), own_vocab=st.booleans(),
           max_len=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_one_separator_per_value_boundary(self, values, kind, own_vocab, max_len):
        # [SEP] enters a row only between two values, also where a value's
        # text is "<SEP>" or "[SEP]" and the vocabulary learned its words
        vocab = tk.build_vocab([" ".join(values)], kind, 500) if own_vocab else VOCABS[kind]
        value_ids = [tk.encode_value(vocab, v) for v in values]
        assert not any(tk.SEP_ID in ids for ids in value_ids)
        boundaries = np.cumsum([len(ids) + 1 for ids in value_ids])[:-1] - 1
        batch = make_batch([augment.SingleSequenceSample(tuple(values))], [np.zeros(19)],
                           TrainingConfig(max_len=max_len), vocab, {})
        row = batch["ids"][0][: batch["tok_mask"][0].sum()]
        np.testing.assert_array_equal(np.flatnonzero(row == tk.SEP_ID),
                                      boundaries[boundaries < max_len])

    @given(values=st.lists(st.lists(st.sampled_from(["a", "1", " ", ":", "<SEP>", "<\\SEP>", "@"]),
                                    max_size=5).map("".join), min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_separator_text_and_its_old_escape_stay_apart(self, values, data):
        # two columns that differ only by <SEP> against <\SEP> at the "@"s
        i = data.draw(st.integers(0, len(values) - 1))
        at = data.draw(st.integers(0, len(values[i])))
        values[i] = values[i][:at] + "@" + values[i][at:]
        raw = ColumnInstance(tuple(v.replace("@", "<SEP>") for v in values))
        escaped = ColumnInstance(tuple(v.replace("@", "<\\SEP>") for v in values))
        assert raw != escaped
        feats = extract_features([raw, escaped])
        assert not np.array_equal(feats[0], feats[1])
        samples = [augment.SingleSequenceSample(c.values) for c in (raw, escaped)]
        for kind in TOKENIZER_KINDS:
            vocab = tk.build_vocab([" ".join(c.values) for c in (raw, escaped)], kind, 500)
            batch = make_batch(samples, list(feats), TrainingConfig(max_len=1000), vocab, {})
            assert not np.array_equal(batch["ids"][0], batch["ids"][1])

    @given(cols=columns, aggregation=st.sampled_from(AGGREGATIONS),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_multi_forward_unchanged_by_trim(self, cols, aggregation, seed):
        # the masked LSTM freezes its state on padding, so the trimmed
        # positions change nothing but the floating-point path of the matmuls
        config = TrainingConfig(mode="multi", r=5, max_len_per_slot=16, aggregation=aggregation)
        vocab = VOCABS["wordpiece"]
        arch = TrainingConfig(
            mode="multi", embedding_dim=4, hidden_size=3,
            feature_dim=4, dense_widths=(5,), dropout=0.0, aggregation=aggregation, r=5,
        )
        model = Model(arch, init_params(arch, len(vocab), 3, np.random.default_rng(seed % 1000)))
        samples = draw_samples(cols, config, seed)
        feats = [np.random.default_rng(seed).normal(size=19) for _ in samples]
        batch = make_batch(samples, feats, config, vocab, {})
        pad = 16 - batch["ids"].shape[-1]
        widened = {**batch,
                   "ids": np.pad(batch["ids"], ((0, 0), (0, pad))),
                   "tok_mask": np.pad(batch["tok_mask"], ((0, 0), (0, pad)))}
        trimmed_probs, _ = model.forward(batch)
        widened_probs, _ = model.forward(widened)
        np.testing.assert_allclose(trimmed_probs, widened_probs, rtol=0, atol=1e-12)


# columns drawn from pools of 1-3 texts: a pool of one gives an all-equal column
repeated_columns = st.lists(
    st.lists(value, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)),
    min_size=1, max_size=4)


def repeated_batch(cols, r, multi_mode, seed):
    config = TrainingConfig(mode="multi", r=r, multi_mode=multi_mode, max_len_per_slot=16)
    samples = draw_samples(cols, config, seed)
    feats = [np.random.default_rng(seed).normal(size=19) for _ in samples]
    return make_batch(samples, feats, config, VOCABS["wordpiece"], {})


class TestDistinctSlotRows:
    """A multi batch holds each distinct slot text once, and inference and
    training both encode each row once."""

    @given(cols=repeated_columns, aggregation=st.sampled_from(AGGREGATIONS),
           r=st.integers(1, 6), multi_mode=st.sampled_from(["pad", "with_replacement"]),
           hidden=st.integers(1, 8), embedding=st.integers(1, 6),
           dropout=st.sampled_from([0.0, 0.4]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_one_row_per_occurrence(self, cols, aggregation, r, multi_mode, hidden,
                                           embedding, dropout, seed):
        batch = repeated_batch(cols, r, multi_mode, seed)
        expanded = one_row_per_occurrence(batch)
        arch = TrainingConfig(
            mode="multi",
            embedding_dim=embedding, hidden_size=hidden, feature_dim=4, dense_widths=(5,),
            dropout=dropout, aggregation=aggregation, r=r,
        )
        model = Model(arch, init_params(arch, len(VOCABS["wordpiece"]), 3,
                                        np.random.default_rng(seed % 1000)))
        # inference: the LSTM batch has another shape, so BLAS may round the
        # rows differently in the last bits
        probs, _ = model.forward(batch)
        expanded_probs, _ = model.forward(expanded)
        np.testing.assert_array_equal(probs.argmax(axis=1), expanded_probs.argmax(axis=1))
        np.testing.assert_allclose(probs, expanded_probs, rtol=0, atol=1e-12)
        # training too, and backward sums the occurrences' gradients into
        # their row before the LSTM backward, in another order
        runs = []
        for b in (batch, expanded):
            p, cache = model.forward(b, train_mode=True,
                                     dropout_rng=np.random.default_rng(seed))
            dlogits = np.random.default_rng(seed + 1).normal(size=p.shape)
            runs.append((p, model.backward(cache, dlogits)))
        (p, grads), (expanded_p, expanded_grads) = runs
        np.testing.assert_array_equal(p.argmax(axis=1), expanded_p.argmax(axis=1))
        np.testing.assert_allclose(p, expanded_p, rtol=0, atol=1e-12)
        for name in grads:
            scale = np.abs(expanded_grads[name]).max()
            np.testing.assert_allclose(grads[name], expanded_grads[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    @given(cols=repeated_columns, multi_mode=st.sampled_from(["pad", "with_replacement"]),
           seed=st.integers(0, 2**32 - 1))
    @example(cols=[["ab"] * 3], multi_mode="pad", seed=0)
    @example(cols=[["ab"] * 3, ["ab"]], multi_mode="with_replacement", seed=0)
    @example(cols=[["1"]], multi_mode="pad", seed=0)
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_at_bench_widths(self, cols, multi_mode, seed):
        # the acceptance and bench multi network: 45 slots, every width a multiple of 4
        batch = repeated_batch(cols, 45, multi_mode, seed)
        arch = TrainingConfig(
            mode="multi",
            embedding_dim=32, hidden_size=32, feature_dim=32, dense_widths=(96,), r=45,
        )
        model = Model(arch, init_params(arch, len(VOCABS["wordpiece"]), 4,
                                        np.random.default_rng(seed % 1000)))
        probs, _ = model.forward(batch)
        expanded_probs, _ = model.forward(one_row_per_occurrence(batch))
        np.testing.assert_array_equal(probs, expanded_probs)


# trains each config of argv[1] ({file name: config dict}) at seed 3 and saves
# its bundle in the working directory
TRAIN_AND_SAVE = """
import json, sys
from dcom import ingest
from dcom.serialize import save_bundle
from dcom.train import TrainingConfig, train_model
instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 60, seed=3)
split = ingest.make_split(len(instances), seed=7, stratify_labels=[i.label for i in instances])
for name, config in json.loads(sys.argv[1]).items():
    bundle, _ = train_model(instances, split, TrainingConfig.from_dict(config), seed=3)
    save_bundle(bundle, name)
"""


class TestTrainModel:
    def test_bundles_byte_equal_across_blas_threads(self, tmp_path):
        # the acceptance networks at 2 epochs: a seeded run must not depend on
        # how many threads BLAS splits a product across
        common = dict(embedding_dim=32, feature_dim=32, dense_widths=[96], epochs=2,
                      vocab_budget=1000)
        configs = {
            "single.dcom": dict(mode="single", hidden_size=48, learning_rate=5e-4, max_len=96,
                                **common),
            "multi.dcom": dict(mode="multi", hidden_size=32, learning_rate=1e-3, r=45,
                               max_len_per_slot=16, **common),
        }
        src = str(Path(dcom.__file__).parent.parent)
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            result = subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, json.dumps(configs)],
                                    cwd=tmp_path / threads, env=env, capture_output=True,
                                    text=True, timeout=600)
            assert result.returncode == 0, result.stderr[-2000:]
        for name in configs:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_sanity_learns(self, sanity_bundle):
        bundle, reports = sanity_bundle
        assert bundle.metadata["best_val_f1"] >= 0.95
        assert reports[4].train_loss < reports[0].train_loss

    def test_deterministic(self, sanity_corpus):
        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=3, **TINY_CONFIG)
        _, a = train_model(instances, split, config, seed=5)
        _, b = train_model(instances, split, config, seed=5)
        assert strip_time(a) == strip_time(b)

    def test_zero_epochs_uniform(self, sanity_corpus):
        from dcom.infer import predict_kvote

        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=0, **TINY_CONFIG)
        bundle, reports = train_model(instances, split, config, seed=5)
        assert reports == []
        pred = predict_kvote(bundle, instances[0], k=1, seed=0)
        np.testing.assert_allclose(pred.probabilities, 0.5, atol=1e-12)

    def test_divergence_fails_loudly(self, sanity_corpus):
        # a huge step overflows the parameters within a few updates; the run
        # raises instead of saving them or quietly restoring earlier ones
        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=2, **{**TINY_CONFIG, "learning_rate": 1e200})
        with pytest.raises(DiagnosticError, match="non-finite"), np.errstate(all="ignore"):
            train_model(instances, split, config, seed=0)

    @pytest.mark.parametrize("edit", [
        lambda s: dict(validation=s.validation + s.train[:1]),
        lambda s: dict(test=s.test + s.validation[-1:]),
        lambda s: dict(train=s.train + s.train[:1]),
    ], ids=["train-in-validation", "validation-in-test", "repeated-train"])
    def test_overlapping_split_rejected(self, sanity_corpus, edit):
        import dataclasses

        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        with pytest.raises(ConfigError, match="and again in"):
            train_model(instances, dataclasses.replace(split, **edit(split)), config)

    def test_empty_validation_rejected(self, sanity_corpus):
        import dataclasses

        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        with pytest.raises(ConfigError, match="validation"):
            train_model(instances, dataclasses.replace(split, validation=()), config)

    def test_unlabeled_train_instance_rejected(self, sanity_corpus):
        instances, split = sanity_corpus
        broken = list(instances)
        broken[split.train[0]] = ColumnInstance(("x",), None)
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        with pytest.raises(ConfigError, match="labeled"):
            train_model(broken, split, config, seed=0)

    def test_unlabeled_validation_instance_rejected(self, sanity_corpus):
        instances, split = sanity_corpus
        broken = list(instances)
        i = split.validation[3]
        broken[i] = ColumnInstance(("x",), None)
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        with pytest.raises(ConfigError, match=rf"validation instance {i} has no label"):
            train_model(broken, split, config, seed=0)

    def test_one_class_rejected(self, sanity_corpus):
        instances, split = sanity_corpus
        relabeled = [ColumnInstance(inst.values, "gender") for inst in instances]
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        with pytest.raises(ConfigError, match=r"2 classes at least.*\['gender'\]"):
            train_model(relabeled, split, config, seed=0)

    def test_all_ones_class_weights_identical(self, sanity_corpus):
        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=2, **TINY_CONFIG)
        bundle_plain, reports_plain = train_model(instances, split, config, seed=5)
        # balanced corpus -> computed class weights are exactly all ones
        weighted = TrainingConfig(mode="single", epochs=2, use_class_weights=True,
                                  **TINY_CONFIG)
        bundle_w, reports_w = train_model(instances, split, weighted, seed=5)
        assert strip_time(reports_plain) == strip_time(reports_w)
        for name in bundle_plain.params:
            np.testing.assert_array_equal(bundle_plain.params[name], bundle_w.params[name])

    def test_scaler_fitted_on_train_only(self, sanity_corpus):
        instances, split = sanity_corpus
        config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
        bundle, _ = train_model(instances, split, config, seed=5)
        train_rows = extract_features([instances[i] for i in split.train])
        np.testing.assert_allclose(bundle.scaler.mean, train_rows.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_grad_norm_max_is_largest_norm_before_update(self, sanity_corpus, mode):
        # each epoch reports the largest global L2 norm of the gradients that
        # reach adam_step
        instances, split = sanity_corpus
        config = TrainingConfig(mode=mode, epochs=2, r=8, **TINY_CONFIG)
        norms, epoch_norms = [], []

        def spy(params, grads, state):
            norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
            return adam_step(params, grads, state)

        def log(report):
            epoch_norms.append(max(norms))
            norms.clear()

        with mock.patch("dcom.train.adam_step", spy):
            _, reports = train_model(instances, split, config, seed=5, log_callback=log)
        assert [r.grad_norm_max for r in reports] == pytest.approx(epoch_norms, rel=1e-12)

    def test_epoch_report_fields(self, sanity_bundle):
        _, reports = sanity_bundle
        for r in reports:
            assert isinstance(r, EpochReport)
            assert 0.0 <= r.val_accuracy <= 1.0
            assert 0.0 <= r.val_f1 <= 1.0
            assert r.train_loss >= 0.0
            assert r.learning_rate > 0.0
            assert r.grad_norm_max > 0.0
            assert 0.0 <= r.truncated_frac <= 1.0

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_truncated_frac(self, sanity_corpus, mode):
        # the share of an epoch's training rows make_batch cut: more than 0
        # under a tiny cut, 0 under one no row reaches
        instances, split = sanity_corpus
        for cut, cut_some in ((1, True), (10_000, False)):
            config = TrainingConfig(mode=mode, epochs=1, r=8,
                                    **{**TINY_CONFIG, "max_len": cut, "max_len_per_slot": cut})
            _, (report,) = train_model(instances, split, config, seed=5)
            assert (report.truncated_frac > 0.0) == cut_some
            assert report.truncated_frac <= 1.0

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_one_step_cache_alive(self, sanity_corpus, mode):
        """train_model holds at most one step's forward cache: an array only a
        training forward's cache holds is freed before the next training
        forward, and before the validation pass, starts."""
        instances, split = sanity_corpus
        config = TrainingConfig(mode=mode, epochs=2, r=8, **TINY_CONFIG)
        forward = Model.forward
        last = []  # a weakref to the last training forward's cache-only array
        checked = {True: [], False: []}  # train_mode -> was it still alive?

        def spy(self, batch, train_mode=False, dropout_rng=None):
            if last:
                checked[train_mode].append(last[-1]() is not None)
            probs, cache = forward(self, batch, train_mode=train_mode, dropout_rng=dropout_rng)
            if train_mode:
                last.append(weakref.ref(cache["z"]))
            return probs, cache

        with mock.patch.object(Model, "forward", spy):
            train_model(instances, split, config, seed=5)
        assert checked[True] and checked[False]
        assert not any(checked[True]) and not any(checked[False])


def caller_order_probs(model, samples, feats, vocab, rows):
    """Inference probabilities forwarded chunk by chunk in the caller's order."""
    return np.vstack([
        model.forward(make_batch(samples[i : i + rows], feats[i : i + rows], model.config,
                                 vocab, {}))[0]
        for i in range(0, len(samples), rows)])


class TestOrderedForward:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_caller_order(self, sanity_bundle, sanity_corpus, data):
        """Single-mode forward_samples orders the samples by row length, the
        chunks shortest first, and returns each probability in the caller's
        place. It is the bits of the caller-order forward when a row's
        rounding cannot depend on its chunk: every chunk holds the same
        number of rows, a multiple of 4, and a row of 2 tokens at least, in
        both orders; validation's 320 rows in chunks of 32 do. Otherwise it
        is within 1e-12:
        - OpenBLAS's Haswell kernel computes a product's rows in blocks of
          4 and rounds a partial block's rows differently: the output
          layer's (B, 32) @ (32, 2) product gives a row other bits as the
          5th of 5 rows than as the 1st.
        - In a chunk whose rows have 1 token at most, each row's input
          product has one row and goes to gemv (nn._packed_gates)."""
        bundle, _ = sanity_bundle
        instances, _ = sanity_corpus
        rows = data.draw(st.one_of(st.sampled_from([4, 8]), st.integers(2, 8)), label="rows")
        if data.draw(st.booleans(), label="full chunks"):
            n = rows * data.draw(st.integers(2, 5), label="chunks")
        else:
            n = data.draw(st.integers(rows + 1, 40), label="n")
        k = data.draw(st.sampled_from([1, 4]), label="k")
        picked = data.draw(st.lists(st.sampled_from(range(len(instances))), min_size=n,
                                    max_size=n), label="columns")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        samples = [augment.inference_inputs(instances[i], bundle.training, k, rng)[0]
                   for i in picked]
        feats = rng.normal(size=(n, 19))
        model = Model(bundle.training, bundle.params)
        seen = []

        def spy(chunk, *args):
            batch = make_batch(chunk, *args)
            seen.append(batch["tok_mask"].sum(axis=1))
            return batch

        with mock.patch("dcom.train.make_batch", spy):
            probs = forward_samples(model, samples, feats, bundle.vocab, rows, {})
        want = caller_order_probs(model, samples, feats, bundle.vocab, rows)
        lengths = np.concatenate(seen)
        assert np.all(np.diff(lengths) >= 0)
        in_caller_order = [b["tok_mask"].sum(axis=1) for b in (
            make_batch(samples[i : i + rows], feats[i : i + rows], model.config,
                       bundle.vocab, {}) for i in range(0, n, rows))]
        if (rows % 4 == 0 and n % rows == 0
                and min(c.max() for c in seen + in_caller_order) >= 2):
            np.testing.assert_array_equal(probs, want)
        else:
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [4, 8])
    def test_validation_sized_chunks_bit_equal(self, sanity_bundle, sanity_corpus, rows):
        """Full chunks of rows that are a multiple of 4, every row 2 tokens
        long at least: the ordered forward is the caller-order one, bit for
        bit, as validation is."""
        bundle, _ = sanity_bundle
        instances, _ = sanity_corpus
        rng = np.random.default_rng(rows)
        samples = [augment.inference_inputs(inst, bundle.training, 1, rng)[0]
                   for inst in instances[: 4 * rows]]
        feats = rng.normal(size=(len(samples), 19))
        model = Model(bundle.training, bundle.params)
        probs = forward_samples(model, samples, feats, bundle.vocab, rows, {})
        np.testing.assert_array_equal(
            probs, caller_order_probs(model, samples, feats, bundle.vocab, rows))

    @pytest.mark.parametrize("mode,rows", [("single", 1), ("multi", 4)])
    def test_keeps_caller_order(self, sanity_bundle, sanity_multi_bundle, sanity_corpus,
                                mode, rows):
        """rows == 1 (predict_kvote) never reorders, nor does multi mode, whose
        rows are slot texts that ordering the samples does not shorten."""
        bundle = sanity_bundle[0] if mode == "single" else sanity_multi_bundle
        instances, _ = sanity_corpus
        rng = np.random.default_rng(0)
        samples = [augment.inference_inputs(inst, bundle.training, 3, rng)[j]
                   for inst in instances[:12] for j in range(3)]
        feats = rng.normal(size=(len(samples), 19))
        seen = []

        def spy(chunk, *args):
            seen.extend(chunk)
            return make_batch(chunk, *args)

        with mock.patch("dcom.train.make_batch", spy):
            probs = forward_samples(Model(bundle.training, bundle.params), samples, feats,
                                    bundle.vocab, rows, {})
        assert [id(s) for s in seen] == [id(s) for s in samples]
        assert probs.shape == (len(samples), len(bundle.class_vocab))
