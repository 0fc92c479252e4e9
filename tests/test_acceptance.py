"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import math
import time
from collections import Counter

import numpy as np
import pytest

from dcom import infer, ingest
from dcom.augment import enumerate_permutations, sample_single
from dcom.core import ColumnInstance
from dcom.explain import importance_scores
from dcom.features import extract_features
from dcom.infer import evaluate, predict_kvote
from dcom.nn import Model, init_params
from dcom.serialize import load_bundle, save_bundle
from dcom.train import (
    PlateauScheduler,
    TrainingConfig,
    cross_entropy_batch,
    support_weighted_f1,
    train_model,
)
from feature_oracle import oracle_features, random_column
from test_train import brute_force_weighted_f1


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


# -- shared trained models (criteria 6, 7) -----------------------------------

SINGLE_CONFIG = TrainingConfig(
    mode="single", embedding_dim=32, hidden_size=48, feature_dim=32,
    dense_widths=(96,), epochs=18, batch_size=32, learning_rate=5e-4,
    vocab_budget=1000, max_len=96,
)
MULTI_CONFIG = TrainingConfig(
    mode="multi", embedding_dim=32, hidden_size=32, feature_dim=32,
    dense_widths=(96,), epochs=10, batch_size=32, learning_rate=1e-3,
    vocab_budget=1000, r=45, multi_mode="pad", max_len_per_slot=16,
)


@pytest.fixture(scope="module")
def benchmark_corpus():
    instances = ingest.generate_synthetic_corpus(ingest.DEFAULT_CLASS_SPEC, 200, seed=11)
    split = ingest.make_split(
        len(instances), seed=7, stratify_labels=[i.label for i in instances]
    )
    return instances, split


@pytest.fixture(scope="module")
def trained_single(benchmark_corpus):
    instances, split = benchmark_corpus
    t0 = time.perf_counter()
    bundle, reports = train_model(instances, split, SINGLE_CONFIG, seed=3)
    return bundle, reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_multi(benchmark_corpus):
    instances, split = benchmark_corpus
    t0 = time.perf_counter()
    bundle, reports = train_model(instances, split, MULTI_CONFIG, seed=3)
    return bundle, reports, time.perf_counter() - t0


def test_criterion_1_feature_oracle():
    with criterion(1, "feature oracle on 1000 synthetic columns"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for _ in range(1000):
            values = random_column(rng)
            got = extract_features([ColumnInstance(tuple(values))])[0]
            np.testing.assert_allclose(got, oracle_features(values), atol=1e-9)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_permutation_construction():
    with criterion(2, "permutation construction"):
        # cardinality for all n <= 5, r <= n
        for n in range(1, 6):
            inst = ColumnInstance(tuple(f"v{i}" for i in range(n)))
            for r in range(1, n + 1):
                samples = enumerate_permutations(inst, r)
                assert len(samples) == math.factorial(n) // math.factorial(n - r)
                assert len({s.text for s in samples}) == len(samples)

        # the published permutation examples for the 3-value description column
        d1 = "Deletes the property"
        d2 = "Lets you edit the value of the property"
        d3 = "Script execution will be stopped"
        inst = ColumnInstance((d1, d2, d3))
        assert {s.text for s in enumerate_permutations(inst, 1)} == {d1, d2, d3}
        r2 = {s.text for s in enumerate_permutations(inst, 2)}
        assert f"{d1} <SEP> {d2}" in r2
        assert f"{d2} <SEP> {d3}" in r2
        r3 = {s.text for s in enumerate_permutations(inst, 3)}
        for expected in (
            f"{d1} <SEP> {d2} <SEP> {d3}",
            f"{d1} <SEP> {d3} <SEP> {d2}",
            f"{d2} <SEP> {d1} <SEP> {d3}",
        ):
            assert expected in r3

        # frequency uniformity at 3 sigma over 1000 draws
        inst4 = ColumnInstance(("a", "b", "c", "d"))
        rng = np.random.default_rng(123)
        n_draws = 1000
        counts = Counter(sample_single(inst4, rng, r=2).text for _ in range(n_draws))
        assert len(counts) == 12
        p = 1 / 12
        sigma = math.sqrt(n_draws * p * (1 - p))
        for count in counts.values():
            assert abs(count - n_draws * p) <= 3 * sigma


def test_criterion_3_gradient_check():
    with criterion(3, "gradient check vs central finite differences"):
        t0 = time.perf_counter()
        config = TrainingConfig(
            mode="single", embedding_dim=4,
            hidden_size=3, feature_dim=4, dense_widths=(5,), dropout=0.0,
        )
        eps = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = Model(config, init_params(config, 12, 3, np.random.default_rng(seed)))
            ids = rng.integers(3, 12, size=(2, 5))
            batch = {"ids": ids, "lengths": np.array([3, 5]), "feats": rng.normal(size=(2, 19))}
            labels = rng.integers(0, 3, size=2)
            probs, cache = model.forward(batch)
            _, dlogits = cross_entropy_batch(probs, labels)
            analytic = model.backward(cache, dlogits)

            def loss_of():
                p, _ = Model(config, params=model.params).forward(batch)
                return cross_entropy_batch(p, labels)[0]

            for name, grad in analytic.items():
                flat = model.params[name].ravel()
                gflat = grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = loss_of()
                    flat[i] = orig - eps
                    down = loss_of()
                    flat[i] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd), abs(gflat[i]), 1e-8)
                    assert abs(fd - gflat[i]) / denom < 1e-4, (seed, name, i)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_metric_oracle():
    with criterion(4, "support-weighted F1 oracle"):
        assert support_weighted_f1([0, 0, 0, 1], [0, 0, 1, 1], 2) == pytest.approx(
            0.7667, abs=1e-4
        )
        rng = np.random.default_rng(55)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            C = int(rng.integers(2, 9))
            y_true = rng.integers(0, C, size=n).tolist()
            y_pred = rng.integers(0, C, size=n).tolist()
            assert support_weighted_f1(y_true, y_pred, C) == pytest.approx(
                brute_force_weighted_f1(y_true, y_pred, C), abs=1e-9
            )


def test_criterion_5_scheduler():
    with criterion(5, "plateau scheduler factor 0.5 / patience 5"):
        sched = PlateauScheduler(learning_rate=1e-4)
        lrs = [sched.step(0.5) for _ in range(6)]
        assert lrs == [1e-4] * 5 + [pytest.approx(5e-5)]


def test_criterion_6_desk_scale_learning(trained_single, trained_multi):
    with criterion(6, "desk-scale learning (single >= 0.85, multi >= 0.80)"):
        bundle_s, reports_s, elapsed_s = trained_single
        best_single = max(r.val_f1 for r in reports_s)
        assert elapsed_s < 600.0, f"single training took {elapsed_s:.0f}s"
        assert best_single >= 0.85, f"single val F1 {best_single:.3f}"

        bundle_m, reports_m, elapsed_m = trained_multi
        best_multi = max(r.val_f1 for r in reports_m)
        assert elapsed_m < 600.0, f"multi training took {elapsed_m:.0f}s"
        assert best_multi >= 0.80, f"multi val F1 {best_multi:.3f}"
        print(
            f"    single: val F1 {best_single:.3f} in {elapsed_s:.0f}s; "
            f"multi: val F1 {best_multi:.3f} in {elapsed_m:.0f}s"
        )


def test_criterion_7_kvote_direction(benchmark_corpus, trained_single, monkeypatch):
    with criterion(7, "k-vote F1 direction and latency scaling"):
        instances, split = benchmark_corpus
        bundle, _, _ = trained_single
        # k=1 and k=10 alternate shard by shard, so a change in the host's
        # speed during the run falls on both means alike
        labels = {1: ([], []), 10: ([], [])}  # k -> (true ids, predicted ids)

        def recorded(*args, **kwargs):
            pred = predict_kvote(*args, **kwargs)
            true_ids, pred_ids = labels[pred.k]
            true_ids.append(bundle.class_vocab.id_of(args[1].label))
            pred_ids.append(bundle.class_vocab.id_of(pred.label))
            return pred

        monkeypatch.setattr(infer, "predict_kvote", recorded)
        runtime = {1: 0.0, 10: 0.0}
        test = list(split.test)
        for lo in range(0, len(test), 40):
            shard = test[lo : lo + 40]
            for k in (1, 10):
                report = evaluate(bundle, instances, shard, k=k, seed=0)
                runtime[k] += report["runtime_mean_s"] * len(shard)
        f1 = {k: support_weighted_f1(*labels[k], len(bundle.class_vocab)) for k in labels}
        assert len(labels[1][0]) == len(labels[10][0]) == len(test)
        assert f1[10] >= f1[1] - 0.01, (f1[1], f1[10])
        ratio = runtime[10] / runtime[1]
        assert 5.0 <= ratio <= 20.0, f"latency ratio {ratio:.1f}"
        print(f"    F1 k=1 {f1[1]:.3f} -> k=10 {f1[10]:.3f}; latency ratio {ratio:.1f}x")


def test_criterion_8_explain():
    with criterion(8, "feature-importance hand case and invariances"):
        np.testing.assert_allclose(
            importance_scores(np.array([[1.0, -3.0], [0.0, 2.0]])), [1.0, 0.5]
        )
        rng = np.random.default_rng(8)
        for _ in range(100):
            W = rng.normal(size=(19, 5))
            c = rng.uniform(0.1, 9.0) * rng.choice([-1.0, 1.0])
            np.testing.assert_allclose(
                importance_scores(c * W), importance_scores(W), atol=1e-12
            )
            perm = rng.permutation(19)
            np.testing.assert_allclose(
                importance_scores(W[perm]), importance_scores(W)[perm], atol=1e-12
            )


def test_criterion_9_round_trip(tmp_path, trained_single):
    with criterion(9, "bundle round trip, bitwise-identical predictions"):
        bundle, _, _ = trained_single
        path = tmp_path / "model.dcom"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        rng = np.random.default_rng(9)
        for i in range(100):
            values = random_column(rng, max_values=8)
            inst = ingest.make_instance(values)
            a = predict_kvote(bundle, inst, k=1, seed=i)
            b = predict_kvote(loaded, inst, k=1, seed=i)
            assert a.label == b.label
            np.testing.assert_array_equal(a.probabilities, b.probabilities)


def test_criterion_10_confusable_classes():
    with criterion(10, "confusable rank/ranking/position triple surfaces"):
        instances = ingest.generate_synthetic_corpus(ingest.CONFUSION_CLASS_SPEC, 80, seed=21)
        split = ingest.make_split(
            len(instances), seed=5, stratify_labels=[i.label for i in instances]
        )
        config = TrainingConfig(
            mode="single", embedding_dim=24, hidden_size=32, feature_dim=24,
            dense_widths=(64,), epochs=8, batch_size=32, learning_rate=1e-3,
            vocab_budget=500, max_len=96,
        )
        bundle, _ = train_model(instances, split, config, seed=4)
        report = evaluate(bundle, instances, split.test, k=1, seed=0)
        by_class = {row["class"]: row for row in report["per_class"]}
        average_f1 = np.mean([row["f1"] for row in report["per_class"]])
        triple = ("rank", "ranking", "position")
        for name in triple:
            assert by_class[name]["f1"] < average_f1, (name, by_class[name]["f1"])
        assert report["low_precision"]["class"] in triple
        assert report["low_recall"]["class"] in triple
        assert report["low_precision"]["examples"]
        assert report["low_recall"]["examples"]
        for example in report["low_precision"]["examples"]:
            assert {"values", "true_type", "predicted_type"} <= set(example)
