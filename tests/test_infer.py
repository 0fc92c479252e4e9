import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcom import augment, ingest, tokenizers
from dcom.cli import main
from dcom.core import ClassVocabulary, ColumnInstance, TrainingConfig, make_instance
from dcom.errors import ConfigError
from dcom.features import FeatureScaler, extract_features
from dcom.infer import _forward_groups, _group_vote, evaluate, predict_kvote, predict_many
from dcom.nn import Model, init_params, zeros_like_params
from dcom.serialize import ModelBundle, save_bundle
from dcom.tokenizers import RESERVED, Vocabulary
from dcom.train import make_batch


def tiny_bundle(training, class_names):
    """A bundle of the given training config over a 5-character vocabulary, with
    random parameters."""
    vocab = Vocabulary("char", RESERVED + ("a", "b", "1", "2", " "))
    classes = ClassVocabulary(tuple(class_names))
    params = init_params(training, len(vocab), len(classes), np.random.default_rng(0))
    return ModelBundle(params=params, vocab=vocab,
                       scaler=FeatureScaler(mean=np.zeros(19), std=np.ones(19)),
                       class_vocab=classes, training=training)


def zero_bundle(n_classes=3):
    training = TrainingConfig(mode="single", embedding_dim=4, hidden_size=3,
                              feature_dim=4, dense_widths=(5,), dropout=0.0,
                              tokenizer="char")
    bundle = tiny_bundle(training, [f"class{i}" for i in range(n_classes)])
    bundle.params = zeros_like_params(bundle.params)
    return bundle


def random_bundle(mode):
    training = TrainingConfig(mode=mode, embedding_dim=4, hidden_size=3, feature_dim=4,
                              dense_widths=(5,), dropout=0.0, r=6, tokenizer="char",
                              max_len_per_slot=16)
    return tiny_bundle(training, ["x", "y", "z"])


def _vote_winner(probs: np.ndarray) -> tuple[int, dict]:
    """The per-column vote the group vote replaced, kept as its oracle:
    majority label over the argmaxes of k distributions, ties broken by
    highest summed probability among the tied labels, then by lowest class
    id."""
    votes = Counter(int(np.argmax(p)) for p in probs)
    top = max(votes.values())
    tied = [label for label, count in votes.items() if count == top]
    summed = probs.sum(axis=0)
    winner = min(tied, key=lambda c: (-summed[c], c))
    return winner, dict(votes)


def id_vocab(n_classes):
    """A class vocabulary whose names are the class ids."""
    return ClassVocabulary(tuple(str(c) for c in range(n_classes)))


def vote_by_id(probs):
    """_group_vote's (winner, votes) of one column of len(probs) samples, by
    class id."""
    [(_, label, votes)] = _group_vote(id_vocab(probs.shape[1]), probs, len(probs))
    return int(label), votes and {int(c): n for c, n in votes.items()}


class TestPredictOne:
    """k=1: one prediction from one full permutation of the column."""

    def test_zero_model_uniform_and_tie_rule(self):
        bundle = zero_bundle()
        pred = predict_kvote(bundle, ColumnInstance(("a", "b")), k=1, seed=0)
        np.testing.assert_allclose(pred.probabilities, 1 / 3, atol=1e-12)
        assert pred.label == "class0"  # ties go to the lowest class id
        assert pred.k == 1 and pred.votes is None

    def test_trained_gender(self, sanity_bundle):
        bundle, _ = sanity_bundle
        pred = predict_kvote(bundle, make_instance(["F", "M"]), k=1, seed=0)
        assert pred.label == "gender"
        assert pred.probabilities.max() > 0.9

    def test_deterministic(self, sanity_bundle):
        bundle, _ = sanity_bundle
        inst = make_instance(["12 years", "3 years"])
        a = predict_kvote(bundle, inst, k=1, seed=42)
        b = predict_kvote(bundle, inst, k=1, seed=42)
        assert a.label == b.label
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_single_value_seed_invariant(self, sanity_bundle):
        bundle, _ = sanity_bundle
        inst = make_instance(["F"])
        a = predict_kvote(bundle, inst, k=1, seed=1)
        b = predict_kvote(bundle, inst, k=1, seed=999)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)


class TestPredictKvote:
    def test_k1_equals_one_full_permutation(self, sanity_bundle):
        bundle, _ = sanity_bundle
        inst = make_instance(["M", "F", "M"])
        pred = predict_kvote(bundle, inst, k=1, seed=5)
        sample = augment.sample_single(inst, np.random.default_rng(5), r=inst.n)
        feats = bundle.scaler.transform(extract_features([inst])[0])
        batch = make_batch([sample], [feats], bundle.training, bundle.vocab, {})
        probs, _ = Model(bundle.training, bundle.params).forward(batch, train_mode=False)
        np.testing.assert_array_equal(pred.probabilities, probs[0])
        assert pred.label == bundle.class_vocab.name_of(int(np.argmax(probs[0])))
        assert pred.votes is None

    def test_k10_votes_sum(self, sanity_bundle):
        bundle, _ = sanity_bundle
        pred = predict_kvote(bundle, make_instance(["F", "M", "F"]), k=10, seed=3)
        assert sum(pred.votes.values()) == 10
        assert pred.label in pred.votes
        assert pred.votes[pred.label] == max(pred.votes.values())
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-8)

    def test_strict_majority(self):
        probs = np.array([[0.6, 0.4]] * 7 + [[0.4, 0.6]] * 3)
        winner, votes = vote_by_id(probs)
        assert winner == 0
        assert votes == {0: 7, 1: 3}

    def test_tie_broken_by_summed_probability(self):
        probs = np.array(
            [[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.1, 0.9, 0.0], [0.2, 0.8, 0.0]]
        )
        # votes 2-2; summed p: A=2.0 vs B=2.0 ... adjust to favor A
        probs[0] = [0.95, 0.05, 0.0]
        winner, votes = vote_by_id(probs)
        assert votes[0] == votes[1] == 2
        assert winner == 0

    def test_tie_then_class_id(self):
        probs = np.array([[0.6, 0.4], [0.4, 0.6]])
        winner, _ = vote_by_id(probs)
        assert winner == 0  # equal votes and equal summed probability

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_vote_winner_matches_brute_force(self, argmaxes):
        rng = np.random.default_rng(0)
        probs = []
        for label in argmaxes:
            row = rng.random(4) * 0.1
            row[label] += 1.0
            probs.append(row / row.sum())
        probs = np.array(probs)
        winner, votes = vote_by_id(probs)
        tally = Counter(argmaxes)
        assert votes == (dict(tally) if len(argmaxes) > 1 else None)  # one sample: no vote
        top = max(tally.values())
        tied = [c for c, n in tally.items() if n == top]
        summed = probs.sum(axis=0)
        assert winner == min(tied, key=lambda c: (-summed[c], c))

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_encodes_each_value_once_per_call(self, mode, monkeypatch):
        bundle = random_bundle(mode)
        inst = make_instance(["ab", "b1", "ab", "2 a"])
        encoded = []
        encode_value = tokenizers.encode_value

        def counting_encode_value(vocab, value):
            encoded.append(value)
            return encode_value(vocab, value)

        monkeypatch.setattr(tokenizers, "encode_value", counting_encode_value)
        predict_kvote(bundle, inst, k=10, seed=4)
        # single: the 10 samples share values.  multi: 4 values in 6 pad-mode
        # slots, so every sample holds each value, and the two padded slots
        # are not encoded
        assert sorted(encoded) == ["2 a", "ab", "b1"]
        # a second call fills a cache of its own
        predict_kvote(bundle, inst, k=10, seed=5)
        assert sorted(encoded[3:]) == ["2 a", "ab", "b1"]

    def test_invalid_k(self, sanity_bundle):
        bundle, _ = sanity_bundle
        with pytest.raises(ConfigError):
            predict_kvote(bundle, make_instance(["F"]), k=0)


class TestGroupVote:
    """_group_vote votes each column of a group as _vote_winner votes it alone."""

    @given(data=st.data(), k=st.one_of(st.sampled_from([1, 2]), st.integers(3, 12)),
           cols=st.integers(1, 6), n_classes=st.integers(2, 5), dyadic=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_oracle(self, data, k, cols, n_classes, dyadic):
        if dyadic:
            # every row a permutation of one distribution of powers of two:
            # votes tie often, and so do the tied labels' summed probabilities
            base = 2.0 ** -np.arange(1, n_classes + 1)
            base[-1] *= 2
            perms = data.draw(st.lists(st.permutations(range(n_classes)),
                                       min_size=cols * k, max_size=cols * k))
            probs = np.array([base[list(perm)] for perm in perms])
        else:
            seed = data.draw(st.integers(0, 2**32 - 1))
            probs = np.random.default_rng(seed).dirichlet(np.ones(n_classes), size=cols * k)
        voted = _group_vote(id_vocab(n_classes), probs, k)
        assert len(voted) == cols
        for j, (mean, label, votes) in enumerate(voted):
            rows = probs[j * k : (j + 1) * k]
            winner, oracle_votes = _vote_winner(rows)
            assert label == str(winner)
            assert mean.tobytes() == rows.mean(axis=0).tobytes()
            if k == 1:
                assert votes is None
                continue
            assert votes == {str(c): n for c, n in oracle_votes.items()}
            assert list(votes) == sorted(votes, key=int)  # class-id order
            assert all(type(n) is int for n in votes.values())


class TestPredictMany:
    """predict_many batches across columns and votes as predict_kvote does."""

    @pytest.fixture(params=["single", "multi"])
    def bundle(self, request, sanity_bundle, sanity_multi_bundle):
        return sanity_bundle[0] if request.param == "single" else sanity_multi_bundle

    @pytest.mark.parametrize("k", [1, 10])
    def test_matches_predict_kvote(self, bundle, sanity_corpus, k):
        instances, _ = sanity_corpus
        # more columns than batch_size, so several chunks of columns and of rows
        assert len(instances) > bundle.training.batch_size
        seeds = [int(np.random.default_rng([7, i]).integers(2**63))
                 for i in range(len(instances))]
        many = predict_many(bundle, instances, k, seeds)
        assert len(many) == len(instances)
        for inst, seed, got in zip(instances, seeds, many):
            want = predict_kvote(bundle, inst, k, seed)
            assert (got.label, got.votes, got.k) == (want.label, want.votes, want.k)
            # a batched row is not bit-equal to the row run alone
            np.testing.assert_allclose(got.probabilities, want.probabilities, rtol=0,
                                       atol=1e-12)
            assert got.latency_s > 0.0

    def test_encodes_each_value_once_per_call(self, bundle, sanity_corpus, monkeypatch):
        """The column groups of one predict_many call share one token cache:
        a value is encoded once per call, however many groups hold it, and
        encoded again by the next call."""
        instances, _ = sanity_corpus
        assert len(_forward_groups(instances, 10, bundle.training)) > 1
        encode_value = tokenizers.encode_value
        calls = []

        def counting_encode_value(vocab, value):
            calls[-1].append(value)
            return encode_value(vocab, value)

        monkeypatch.setattr(tokenizers, "encode_value", counting_encode_value)
        for _ in range(2):
            calls.append([])
            predict_many(bundle, instances, 10, range(len(instances)))
        first, second = calls
        assert len(first) == len(set(first))
        assert set(first) <= {value for instance in instances for value in instance.values}
        assert second == first

    def test_empty(self, bundle):
        assert predict_many(bundle, [], 10, []) == []

    def test_seed_count_must_match(self, bundle):
        with pytest.raises(ConfigError, match="2 columns but 1 seeds"):
            predict_many(bundle, [make_instance(["F"]), make_instance(["M"])], 3, [0])


# columns of 1-20 values drawn from a small pool, so that values repeat within
# a column and many columns have more values than a bundle's r
grouped_columns = st.lists(
    st.lists(st.sampled_from(["a", "b", "ab", "1", "2", "b1", "a 2", "12", "ba", "21"]),
             min_size=1, max_size=20),
    min_size=1, max_size=12)


def spied_predict_many(bundle, columns, k, seeds):
    """predict_many's predictions and, per forward, its samples and the
    number of its distinct slot texts (make_batch's rows)."""
    forwards = []

    def spy(samples, *args):
        batch = make_batch(samples, *args)
        forwards.append((samples, len(batch["ids"])))
        return batch

    with mock.patch("dcom.train.make_batch", spy):
        predictions = predict_many(bundle, columns, k, seeds)
    return predictions, forwards


class TestPredictManyGroups:
    """A multi bundle that aggregates by mean, sum or weighted_sum forwards
    each run of columns whose distinct slot texts fit in batch_size * r once."""

    @settings(max_examples=60, deadline=None)
    @given(cols=grouped_columns, k=st.sampled_from([1, 3, 10]),
           batch_size=st.sampled_from([1, 2, 4]),
           aggregation=st.sampled_from(["mean", "sum", "weighted_sum"]),
           multi_mode=st.sampled_from(["pad", "with_replacement"]))
    def test_one_forward_per_group(self, cols, k, batch_size, aggregation, multi_mode):
        training = TrainingConfig(mode="multi", embedding_dim=4, hidden_size=3,
                                  feature_dim=4, dense_widths=(5,), dropout=0.0, r=6,
                                  tokenizer="char", max_len_per_slot=16,
                                  batch_size=batch_size, aggregation=aggregation,
                                  multi_mode=multi_mode)
        bundle = tiny_bundle(training, ["x", "y", "z"])
        columns = [make_instance(values) for values in cols]
        seeds = list(range(len(columns)))
        predictions, forwards = spied_predict_many(bundle, columns, k, seeds)
        for column, seed, got in zip(columns, seeds, predictions):
            want = predict_kvote(bundle, column, k, seed)
            assert (got.label, got.votes, got.k) == (want.label, want.votes, want.k)
        cap = batch_size * training.r
        # walk the forwards against the columns: each forward is one group of
        # whole columns, or a part of a column over the bound alone
        bounds = [min(c.n, k * training.r) for c in columns]  # most distinct texts
        i = 0
        while forwards:
            if bounds[i] > cap:  # alone, batch_size samples per forward
                for _ in range(0, k, batch_size):
                    samples, texts = forwards.pop(0)
                    assert len(samples) <= batch_size and texts <= cap
                i += 1
                continue
            samples, texts = forwards.pop(0)
            assert len(samples) % k == 0
            n = len(samples) // k
            assert 1 <= n <= batch_size
            assert texts <= sum(bounds[i : i + n]) <= cap
            # the group is as long as it can be: the next column would not fit
            if i + n < len(columns):
                assert n == batch_size or sum(bounds[i : i + n + 1]) > cap
            i += n
        assert i == len(columns)

    def test_bench_sized_shard_is_two_forwards(self):
        """40 columns of 20-40 values, r = 45 and batch_size 32, in chunks of
        32 columns as dcom predict makes them: two forwards at k = 10, where
        one forward per batch_size samples took 13."""
        training = TrainingConfig(mode="multi", embedding_dim=4, hidden_size=3,
                                  feature_dim=4, dense_widths=(5,), dropout=0.0, r=45,
                                  tokenizer="char", max_len_per_slot=16)
        bundle = tiny_bundle(training, ["x", "y", "z"])
        rng = np.random.default_rng(0)
        columns = [make_instance([f"{v}" for v in rng.integers(0, 60, size=rng.integers(20, 41))])
                   for _ in range(40)]
        n_forwards = 0
        for start in range(0, 40, 32):
            chunk = columns[start : start + 32]
            _, forwards = spied_predict_many(bundle, chunk, 10, list(range(len(chunk))))
            n_forwards += len(forwards)
        assert n_forwards == 2

    @pytest.mark.parametrize("mode,aggregation", [("multi", "concatenation"),
                                                  ("single", "mean")])
    def test_batch_size_forwards_elsewhere(self, mode, aggregation):
        """Concatenation's head input, and single mode's rows, grow with the
        samples: their forwards keep batch_size samples, batch_size columns
        at a time."""
        training = TrainingConfig(mode=mode, embedding_dim=4, hidden_size=3, feature_dim=4,
                                  dense_widths=(5,), dropout=0.0, r=6, tokenizer="char",
                                  max_len_per_slot=16, batch_size=4, aggregation=aggregation)
        bundle = tiny_bundle(training, ["x", "y", "z"])
        columns = [make_instance(["a", "b", "ab", "1"][: 1 + i % 4]) for i in range(10)]
        predictions, forwards = spied_predict_many(bundle, columns, 3, list(range(10)))
        # 3 chunks of 4, 4 and 2 columns, each 12, 12 and 6 samples in fours
        assert [len(samples) for samples, _ in forwards] == [4, 4, 4, 4, 4, 4, 4, 2]
        for column, seed, got in zip(columns, range(10), predictions):
            assert got.label == predict_kvote(bundle, column, 3, seed).label

    def test_cli_labels_equal_predict_kvote(self, sanity_multi_bundle, tmp_path):
        """dcom predict --k 10 on columns of repeated values, most with more
        values than r, gives predict_kvote's labels and votes, as the bench's
        dcom predict gate requires."""
        bundle = sanity_multi_bundle
        rng = np.random.default_rng(1)
        pool = ["F", "M", "12 years", "3 years", "a tall tree", "red", "7", "x1"]
        columns = [make_instance(list(rng.choice(pool, size=rng.integers(1, 30))))
                   for _ in range(40)]
        model, data, out = tmp_path / "model.dcom", tmp_path / "cols.jsonl", tmp_path / "p.jsonl"
        save_bundle(bundle, model)
        ingest.save_jsonl(columns, data)
        _, forwards = spied_predict_many(bundle, columns[:16], 10, list(range(16)))
        assert len(forwards) < 16 * 10 / bundle.training.batch_size  # groups did form
        assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out),
                     "--k", "10", "--seed", "3"]) == 0
        records = [json.loads(line) for line in open(out)]
        assert len(records) == len(columns)
        for i, (column, record) in enumerate(zip(columns, records)):
            want = predict_kvote(bundle, column, 10, np.random.default_rng([3, i]).integers(2**63))
            assert (record["label"], record["votes"]) == (want.label, want.votes)


class TestEvaluate:
    def test_report_consistency(self, sanity_corpus, sanity_bundle):
        instances, split = sanity_corpus
        bundle, _ = sanity_bundle
        report = evaluate(bundle, instances, split.test, k=1, seed=0)
        assert sum(row["support"] for row in report["per_class"]) == len(split.test)
        recomputed = sum(r["f1"] * r["support"] for r in report["per_class"]) / len(split.test)
        assert report["f1_weighted"] == pytest.approx(recomputed, abs=1e-9)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["runtime_mean_s"] > 0.0
        assert {"class", "examples"} <= set(report["low_precision"])

    def test_perfect_classifier_f1(self, sanity_corpus, sanity_bundle):
        instances, split = sanity_corpus
        bundle, _ = sanity_bundle
        report = evaluate(bundle, instances, split.test, k=1, seed=0)
        # the sanity corpus is linearly separable; expect near-perfect F1
        assert report["f1_weighted"] >= 0.95

    def test_empty_test_set(self, sanity_corpus, sanity_bundle):
        instances, _ = sanity_corpus
        bundle, _ = sanity_bundle
        with pytest.raises(ConfigError, match="empty test"):
            evaluate(bundle, instances, [], k=1)

    def test_label_not_in_classes(self, sanity_corpus, sanity_bundle):
        instances, split = sanity_corpus
        bundle, _ = sanity_bundle
        i = split.test[0]
        relabeled = list(instances)
        relabeled[i] = ColumnInstance(instances[i].values, "postcode")
        with pytest.raises(ConfigError, match=rf"test instance {i} has label 'postcode'"):
            evaluate(bundle, relabeled, split.test, k=1)

    def test_repeated_test_index_rejected(self, sanity_corpus, sanity_bundle):
        instances, split = sanity_corpus
        bundle, _ = sanity_bundle
        i = split.test[0]
        with pytest.raises(ConfigError, match=rf"index {i} is in test and again in test"):
            evaluate(bundle, instances, [i] * 5, k=1)

    def test_size_reported_with_path(self, tmp_path, sanity_corpus, sanity_bundle):
        from dcom.serialize import save_bundle
        import os

        instances, split = sanity_corpus
        bundle, _ = sanity_bundle
        path = tmp_path / "m.dcom"
        save_bundle(bundle, path)
        report = evaluate(bundle, instances, split.test[:5], k=1, bundle_path=path)
        assert report["size_mb"] == pytest.approx(os.path.getsize(path) / 1e6)
