import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dcom import augment, nn, tokenizers
from dcom.core import AGGREGATIONS, TrainingConfig
from dcom.errors import ConfigError
from dcom.nn import Model, init_params, text_dim, zeros_like_params
from dcom.serialize import load_bundle, save_bundle
from dcom.train import OptimizerState, adam_step, cross_entropy_batch, forward_samples, train_model
from conftest import TINY_CONFIG
from lstm_oracle import OracleModel

TINY = dict(embedding_dim=4, hidden_size=3, feature_dim=4, dense_widths=(5,), dropout=0.0)
# the data sizes of every tiny network
VOCAB_SIZE, N_CLASSES, N_FEATURES = 12, 3, 19


def tiny_config(mode="single", **overrides):
    kwargs = dict(TINY, mode=mode, **overrides)
    return TrainingConfig(**kwargs)


def seeded_model(config, seed, vocab_size=VOCAB_SIZE, n_classes=N_CLASSES):
    return Model(config, init_params(config, vocab_size, n_classes, np.random.default_rng(seed)))


def per_occurrence(ids, mask, counts):
    """A multi batch from per-slot (B, R, T) ids and token mask, sample i's
    real slots its first counts[i]: one row per real slot, in (b, r) order,
    of its mask's length."""
    counts = np.asarray(counts, dtype=np.int64)
    real = np.arange(ids.shape[1]) < counts[:, None]
    return {"ids": ids[real], "lengths": mask[real].sum(axis=-1),
            "occ": np.arange(counts.sum()), "counts": counts}


def one_row_per_occurrence(batch):
    """The same multi batch with one row per real slot, wherever slots share a row."""
    occ = batch["occ"]
    return {**batch, "ids": batch["ids"][occ], "lengths": batch["lengths"][occ],
            "occ": np.arange(len(occ))}


def random_batch(config, rng, B=2, T=5, lengths=None):
    if config.mode == "single":
        ids = rng.integers(3, VOCAB_SIZE, size=(B, T))
        mask = np.ones((B, T), dtype=np.int64)
        if lengths:
            for i, L in enumerate(lengths):
                mask[i, L:] = 0
                ids[i, L:] = 0
        batch = {"ids": ids, "lengths": mask.sum(axis=1)}
    else:
        ids = rng.integers(3, VOCAB_SIZE, size=(B, config.r, T))
        mask = np.ones((B, config.r, T), dtype=np.int64)
        mask[0, :, T - 1 :] = 0
        batch = per_occurrence(ids, mask, [config.r - 1] + [config.r] * (B - 1))
    batch["feats"] = rng.normal(size=(B, N_FEATURES))
    return batch


def numeric_gradients(config, params, batch, labels, names, eps=1e-5):
    def loss_of():
        probs, _ = Model(config, params=params).forward(batch)
        return cross_entropy_batch(probs, labels)[0]

    out = {}
    for name in names:
        flat = params[name].ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_of()
            flat[i] = orig - eps
            down = loss_of()
            flat[i] = orig
            g[i] = (up - down) / (2 * eps)
        out[name] = g.reshape(params[name].shape)
    return out


def relative_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


class TestForwardContracts:
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_softmax_contract(self, mode):
        config = tiny_config(mode, r=3) if mode == "multi" else tiny_config()
        model = seeded_model(config, 0)
        batch = random_batch(config, np.random.default_rng(1))
        probs, _ = model.forward(batch)
        assert probs.shape == (2, 3)
        assert np.all(probs > 0) and np.all(probs < 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_params_uniform(self):
        config = tiny_config()
        model = Model(config, zeros_like_params(seeded_model(config, 0).params))
        batch = random_batch(config, np.random.default_rng(2))
        probs, _ = model.forward(batch)
        np.testing.assert_array_equal(probs, np.full((2, 3), 1 / 3))

    def test_deterministic_eval(self):
        config = tiny_config()
        model = seeded_model(config, 4)
        batch = random_batch(config, np.random.default_rng(3))
        a, _ = model.forward(batch)
        b, _ = model.forward(batch)
        np.testing.assert_array_equal(a, b)

    def test_identical_slots_mean_equals_one_slot(self):
        config = tiny_config("multi", r=3, aggregation="mean")
        model = seeded_model(config, 0)
        rng = np.random.default_rng(5)
        slot_ids = rng.integers(3, 12, size=(1, 1, 5))
        ids = np.repeat(slot_ids, 3, axis=1)
        mask = np.ones((1, 3, 5), dtype=np.int64)
        feats = rng.normal(size=(1, 19))
        full = {**per_occurrence(ids, mask, [3]), "feats": feats}
        one = {**per_occurrence(ids, mask, [1]), "feats": feats}
        pa, _ = model.forward(full)
        pb, _ = model.forward(one)
        np.testing.assert_allclose(pa, pb, atol=1e-12)

    def test_mean_sum_identity(self):
        rng = np.random.default_rng(6)
        base = tiny_config("multi", r=3, aggregation="mean")
        batch = random_batch(base, rng)
        params = init_params(base, VOCAB_SIZE, N_CLASSES, np.random.default_rng(0))
        enc_mean = Model(base, params=params)
        enc_sum = Model(tiny_config("multi", r=3, aggregation="sum"), params=params)
        _, cache_mean = enc_mean.forward(batch)
        _, cache_sum = enc_sum.forward(batch)
        counts = batch["counts"]
        text_mean = cache_mean["z"][:, : text_dim(base)]
        text_sum = cache_sum["z"][:, : text_dim(base)]
        np.testing.assert_allclose(text_mean * counts[:, None], text_sum, atol=1e-9)

    @pytest.mark.parametrize("aggregation", ["mean", "sum"])
    def test_slot_permutation_invariance(self, aggregation):
        config = tiny_config("multi", r=4, aggregation=aggregation)
        model = seeded_model(config, 1)
        rng = np.random.default_rng(7)
        ids = rng.integers(3, VOCAB_SIZE, size=(1, 4, 4))
        mask = np.ones((1, 4, 4), dtype=np.int64)
        mask[0, :, 3:] = 0
        feats = {"feats": rng.normal(size=(1, N_FEATURES))}
        probs, _ = model.forward({**per_occurrence(ids, mask, [3]), **feats})
        perm = np.r_[rng.permutation(3), 3]  # the real slots, a prefix, in another order
        # the rows move with their slots
        shuffled = per_occurrence(ids[:, perm], mask[:, perm], [3])
        probs2, _ = model.forward({**shuffled, **feats})
        np.testing.assert_allclose(probs, probs2, atol=1e-9)

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("count", [0, 4])
    def test_count_outside_one_to_r_rejected(self, aggregation, count):
        # r = 3: a sample of no real slot, or of more real slots than r,
        # whose slot weight or concatenation place does not exist
        config = tiny_config("multi", r=3, aggregation=aggregation)
        model = seeded_model(config, 0)
        batch = random_batch(config, np.random.default_rng(8))
        batch.update(counts=np.array([count, 3]),
                     occ=np.arange(count + 3) % len(batch["ids"]))
        with pytest.raises(ConfigError, match="1 to r=3 real slots"):
            model.forward(batch)


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences_single(self, seed):
        config = tiny_config()
        rng = np.random.default_rng(seed)
        model = seeded_model(config, seed)
        batch = random_batch(config, rng, lengths=[3, 5])
        labels = rng.integers(0, 3, size=2)
        probs, cache = model.forward(batch)
        _, dlogits = cross_entropy_batch(probs, labels)
        analytic = model.backward(cache, dlogits)
        numeric = numeric_gradients(config, model.params, batch, labels, analytic)
        for name in analytic:
            err = relative_error(analytic[name], numeric[name])
            assert err < 1e-4, (name, err)

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_gradients_match_finite_differences_multi(self, aggregation):
        config = tiny_config("multi", r=3, aggregation=aggregation)
        rng = np.random.default_rng(11)
        model = seeded_model(config, 2)
        batch = random_batch(config, rng, T=4)
        labels = rng.integers(0, 3, size=2)
        probs, cache = model.forward(batch)
        _, dlogits = cross_entropy_batch(probs, labels)
        analytic = model.backward(cache, dlogits)
        numeric = numeric_gradients(config, model.params, batch, labels, analytic)
        for name in analytic:
            err = relative_error(analytic[name], numeric[name])
            assert err < 1e-4, (name, err)

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("slots", [([0, 2, 0, 2, 1, 1], [3, 3]), ([0, 0, 0, 0, 0], [2, 3])])
    def test_gradients_with_shared_rows(self, aggregation, slots):
        # repeated texts: inference and training encode each row once (the
        # second case has one row in all, which is encoded twice) and backward
        # adds the slots' gradients into it.  The gradients are those of one
        # row per slot, checked against finite differences above, and match
        # finite differences to a millionth of their largest entry, after an
        # inference forward and after a training one (dropout is 0, so both
        # compute the same loss).
        config = tiny_config("multi", r=3, aggregation=aggregation)
        rng = np.random.default_rng(12)
        model = seeded_model(config, 2)
        batch = random_batch(config, rng, T=4)
        occ, counts = slots  # each real slot's row, each sample's real slots
        rows = max(occ) + 1  # the rows the slots hold
        batch.update(ids=batch["ids"][:rows], lengths=batch["lengths"][:rows],
                     occ=np.array(occ), counts=np.array(counts))
        labels = rng.integers(0, 3, size=2)
        runs = [(batch, False), (one_row_per_occurrence(batch), False), (batch, True)]
        grads = []
        for b, train_mode in runs:
            probs, cache = model.forward(b, train_mode=train_mode)
            grads.append(model.backward(cache, cross_entropy_batch(probs, labels)[1]))
        analytic, reference, trained = grads
        numeric = numeric_gradients(config, model.params, batch, labels, analytic)
        for name in analytic:
            np.testing.assert_allclose(analytic[name], reference[name], rtol=0, atol=1e-12,
                                       err_msg=name)
            scale = max(np.abs(numeric[name]).max(), 1e-8)
            for g in (analytic, trained):
                assert np.abs(g[name] - numeric[name]).max() < 1e-6 * scale, name

    def test_zero_upstream_gradient(self):
        config = tiny_config()
        model = seeded_model(config, 0)
        batch = random_batch(config, np.random.default_rng(9))
        _, cache = model.forward(batch)
        grads = model.backward(cache, np.zeros((2, 3)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_params_not_mutated_by_backward(self):
        config = tiny_config()
        model = seeded_model(config, 0)
        before = {k: v.copy() for k, v in model.params.items()}
        batch = random_batch(config, np.random.default_rng(10))
        probs, cache = model.forward(batch)
        _, dlogits = cross_entropy_batch(probs, np.array([0, 1]))
        model.backward(cache, dlogits)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p, before[name])


@st.composite
def encoder_cases(draw):
    """A random config and batch: per-row lengths 1..T, multi samples of 1 to
    r real slots, some sharing a row."""
    mode = draw(st.sampled_from(["single", "multi"]))
    sizes = draw(st.integers(4, 9)), draw(st.integers(2, 4))  # vocab_size, n_classes
    config = TrainingConfig(
        mode=mode, embedding_dim=draw(st.integers(1, 6)), hidden_size=draw(st.integers(1, 6)),
        feature_dim=3, dense_widths=(4,), dropout=draw(st.sampled_from([0.0, 0.4])),
        aggregation=draw(st.sampled_from(AGGREGATIONS)), r=draw(st.integers(1, 4)),
    )
    B, T = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = B if mode == "single" else B * config.r
    lengths = rng.integers(1, T + 1, size=rows)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.int64)
    ids = rng.integers(3, sizes[0], size=(rows, T)) * mask
    batch = {"feats": rng.normal(size=(B, N_FEATURES))}
    if mode == "single":
        batch.update(ids=ids, lengths=lengths)
    else:
        counts = rng.integers(1, config.r + 1, size=B)
        batch.update(per_occurrence(ids.reshape(B, config.r, T),
                                    mask.reshape(B, config.r, T), counts))
        if draw(st.booleans()):  # real slots share rows, as repeated texts do
            batch["occ"] = rng.integers(0, counts.sum(), size=counts.sum())
    return config, sizes, batch, int(rng.integers(0, 2**32 - 1))


def assert_equals_oracle(config, batch, seed, train_mode, packed=False,
                         sizes=(VOCAB_SIZE, N_CLASSES)):
    """The fused loop's probabilities equal those of one loop per direction
    (OracleModel), bit for bit. Its gradients are within 1e-12 of the
    oracle's largest entry: backward takes dX and the weight gradients out of
    the time loop, as products over every stepped position summed in blocks,
    so they add in another order than the oracle's per-step products. packed:
    pack every padded inference batch, however small (a span cost of 0); a
    training batch is packed either way."""
    model = seeded_model(config, seed, *sizes)
    oracle = OracleModel(config, params=model.params)
    runs = []
    for m in (model, oracle):
        rng = np.random.default_rng(seed) if train_mode else None
        with mock.patch.object(nn, "PACK_SPAN_COST", 0 if packed else nn.PACK_SPAN_COST):
            probs, cache = m.forward(batch, train_mode=train_mode, dropout_rng=rng)
        dlogits = np.random.default_rng(seed).normal(size=probs.shape)
        runs.append((probs, m.backward(cache, dlogits)))
    (probs, grads), (oracle_probs, oracle_grads) = runs
    np.testing.assert_array_equal(probs, oracle_probs)
    assert grads.keys() == oracle_grads.keys()
    for name in grads:
        scale = np.abs(oracle_grads[name]).max()
        np.testing.assert_allclose(grads[name], oracle_grads[name], rtol=0,
                                   atol=1e-12 * scale, err_msg=name)


PACKED_EDGE_CASES = [
    ([1], 2),  # one position in all: its packed product has one row
    ([1, 1, 0], 1),  # one step: each row's own product has one row
    ([4, 0, 2], 4),  # a row with no tokens, and a lone row at the end
    ([3, 1, 1, 1], 3),
    # every row empty: no stepped position at all, and zero LSTM and
    # embedding gradients (the oracle's)
    ([0] * (2 * nn.PACK_SPAN_COST), 1),
]


def packed_edge_case(lengths, T, width):
    """A tiny single config of the given widths and a batch of rows of the
    given lengths, padded to T."""
    config = tiny_config(embedding_dim=width, hidden_size=width)
    rng = np.random.default_rng(width)
    lengths = np.asarray(lengths)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.int64)
    batch = {"ids": rng.integers(3, VOCAB_SIZE, size=mask.shape) * mask,
             "lengths": lengths, "feats": rng.normal(size=(len(lengths), 19))}
    return config, batch


class TestFusedEncoderOracle:
    @settings(max_examples=200, deadline=None)
    @given(encoder_cases(), st.booleans(), st.booleans())
    def test_equals_per_direction_loops(self, case, train_mode, packed):
        """Both LSTM directions stepped in one loop give the probabilities and
        gradients of one loop per direction (assert_equals_oracle), whether a
        padded batch steps every row, masked, or only the rows inside their
        length."""
        config, sizes, batch, seed = case
        assert_equals_oracle(config, batch, seed, train_mode, packed, sizes)

    @pytest.mark.parametrize("train_mode", [False, True])
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("lengths,T", PACKED_EDGE_CASES)
    def test_packed_edge_cases(self, lengths, T, width, train_mode):
        config, batch = packed_edge_case(lengths, T, width)
        assert_equals_oracle(config, batch, 5, train_mode, packed=True)


BENCH_SIZES = (300, 8)  # vocab_size, n_classes


def bench_width_case(mode, rows, T, lengths, seed):
    """A bench-sized config and a batch of `rows` encoded texts with the given
    lengths (the longest is T): single at E=32, H=48, one text per sample;
    multi at E=32, H=32, the rows spread over 32 samples' slots."""
    config = TrainingConfig(
        mode=mode, embedding_dim=32,
        hidden_size=48 if mode == "single" else 32, feature_dim=32, dense_widths=(96,),
        dropout=0.3, r=45,
    )
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.int64)
    ids = rng.integers(3, BENCH_SIZES[0], size=(rows, T)) * mask
    if mode == "single":
        return config, {"ids": ids, "lengths": lengths, "feats": rng.normal(size=(rows, 19))}
    B = min(32, rows)
    counts = np.array([len(own) for own in np.array_split(np.arange(rows), B)])
    return config, {"ids": ids, "lengths": lengths, "occ": np.arange(rows), "counts": counts,
                    "feats": rng.normal(size=(B, 19))}


def _spread(rng, rows, T, low=1):
    """Row lengths spread over [low, T], the first row the longest."""
    return np.r_[T, rng.integers(low, T + 1, size=rows - 1)]


BENCH_WIDTH_CASES = {
    # spread lengths: the packed steps shrink from 32 rows to a lone row
    "single spread": lambda rng: ("single", 32, 96, _spread(rng, 32, 96)),
    # one long row: most steps have exactly one row inside its length
    "single one long row": lambda rng: ("single", 32, 96,
                                        np.r_[96, rng.integers(1, 30, size=31)]),
    "single equal lengths": lambda rng: ("single", 32, 74, np.full(32, 74)),
    "single one row": lambda rng: ("single", 1, 96, [96]),
    "multi spread": lambda rng: ("multi", 200, 16, _spread(rng, 200, 16)),
    "multi one long row": lambda rng: ("multi", 176, 16,
                                       np.r_[16, rng.integers(1, 9, size=175)]),
    "multi equal lengths": lambda rng: ("multi", 176, 12, np.full(176, 12)),
    # too little padding to pack an inference forward: every row is stepped,
    # past its length too
    "multi one vote": lambda rng: ("multi", 6, 3, _spread(rng, 6, 3)),
    "single few rows": lambda rng: ("single", 3, 30, [30, 28, 25]),
}


class TestFusedEncoderOracleAtBenchWidths:
    """The BLAS kernel, and so the rounding, of a matmul depends on its shape;
    the small random cases above never reach the bench's shapes."""

    @pytest.mark.parametrize("train_mode", [False, True])
    @pytest.mark.parametrize("name", list(BENCH_WIDTH_CASES))
    def test_equals_per_direction_loops(self, name, train_mode):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            config, batch = bench_width_case(*BENCH_WIDTH_CASES[name](rng), seed=seed)
            assert_equals_oracle(config, batch, seed, train_mode, sizes=BENCH_SIZES)


# One packed training step at the bench's single widths, its gradients saved.
BACKWARD_AND_SAVE = """
import json, sys
import numpy as np
from test_nn import BENCH_SIZES, BENCH_WIDTH_CASES, bench_width_case, seeded_model
config, batch = bench_width_case(*BENCH_WIDTH_CASES["single spread"](np.random.default_rng(0)),
                                 seed=0)
model = seeded_model(config, 0, *BENCH_SIZES)
probs, cache = model.forward(batch, train_mode=True, dropout_rng=np.random.default_rng(0))
grads = model.backward(cache, np.random.default_rng(1).normal(size=probs.shape))
np.savez("grads.npz", **grads)
packed = cache["lstm"]["spans"][-1][2] is not None
print(json.dumps({"packed": packed, "positions": int(batch["lengths"].sum())}))
"""


class TestBackwardThreadInvariance:
    def test_gradients_byte_equal_across_blas_threads(self, tmp_path):
        """OpenBLAS rounds one product over every stepped position differently
        under 1 and 2 threads; backward sums the weight gradients in blocks of
        nn.GRAD_BLOCK positions, whose products do not depend on the thread
        count. Several full blocks and a partial one."""
        tests = str(Path(__file__).parent)
        src = str(Path(nn.__file__).parent.parent)
        saved = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)}
            result = subprocess.run([sys.executable, "-c", BACKWARD_AND_SAVE],
                                    cwd=tmp_path / threads, env=env, capture_output=True,
                                    text=True, timeout=300)
            assert result.returncode == 0, result.stderr[-2000:]
            shape = json.loads(result.stdout.splitlines()[-1])
            assert shape["packed"] and shape["positions"] > 600
            assert shape["positions"] % nn.GRAD_BLOCK
            saved.append(np.load(tmp_path / threads / "grads.npz"))
        one, two = saved
        assert sorted(one.files) == sorted(two.files)
        for name in one.files:
            assert one[name].tobytes() == two[name].tobytes(), name


class TestPackedMemory:
    @pytest.mark.parametrize("train_mode", [False, True])
    def test_forward_holds_stepped_positions_only(self, train_mode):
        """A packed forward keeps the stepped positions only, not N x T: at the
        bench's single widths, 32 rows (one of length 96, 31 of length 1)
        peak below one (T + 1, 2, N, H) float64 array, the size of a state
        history over every padded position."""
        T, N = 96, 32
        config, batch = bench_width_case("single", N, T, np.r_[T, np.ones(N - 1, int)], seed=0)
        model = seeded_model(config, 0, *BENCH_SIZES)
        rng = np.random.default_rng(0) if train_mode else None
        tracemalloc.start()
        try:
            _, cache = model.forward(batch, train_mode=train_mode, dropout_rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache["lstm"]["spans"][-1][2] is not None  # packed
        assert peak < (T + 1) * 2 * N * config.hidden_size * 8


@st.composite
def padded_cases(draw):
    """A random config and a padded batch, with or without enough padding to
    pack its steps (PACK_SPAN_COST). The packed kind has one full-length row
    and rows of 0-3 tokens, so its padding outweighs its few distinct lengths.
    A multi batch's real slots take its rows once each, so every row is
    encoded, at inference and in training."""
    mode = draw(st.sampled_from(["single", "multi"]))
    packed = draw(st.booleans())
    config = TrainingConfig(
        mode=mode, embedding_dim=draw(st.integers(1, 4)), hidden_size=draw(st.integers(1, 4)),
        feature_dim=3, dense_widths=(4,), dropout=0.4,
        aggregation=draw(st.sampled_from(AGGREGATIONS)), r=draw(st.integers(1, 4)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if packed:
        rows, T = draw(st.integers(6, 10)), draw(st.integers(16, 20))
        lengths = np.r_[T, rng.integers(0, 4, size=rows - 1)]
        rng.shuffle(lengths)
    else:
        rows, T = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        lengths = rng.integers(0, T + 1, size=rows)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.int64)
    batch = {"ids": rng.integers(3, VOCAB_SIZE, size=(rows, T)) * mask, "lengths": lengths}
    B = rows
    if mode == "multi":
        B = draw(st.integers(1, rows))
        owned = np.array_split(rng.permutation(rows), B)
        config = dataclasses.replace(config, r=max(config.r, *map(len, owned)))
        batch.update(occ=np.concatenate(owned), counts=np.array([len(own) for own in owned]))
    batch["feats"] = rng.normal(size=(B, N_FEATURES))
    return config, batch, packed, int(rng.integers(0, 2**32 - 1))


class TestPaddingIsNeverRead:
    @settings(max_examples=200, deadline=None)
    @given(padded_cases(), st.data())
    def test_any_ids_at_padded_positions(self, case, data):
        """Probabilities, at inference and in training with the same dropout
        rng, and gradients do not change when the padded positions hold any
        vocabulary ids instead of [PAD]."""
        config, batch, packed, seed = case
        pad = np.arange(batch["ids"].shape[1]) >= batch["lengths"][:, None]
        garbage = data.draw(st.lists(st.integers(0, VOCAB_SIZE - 1), min_size=int(pad.sum()),
                                     max_size=int(pad.sum())))
        noisy = {**batch, "ids": batch["ids"].copy()}
        noisy["ids"][pad] = garbage
        model = seeded_model(config, seed)
        for train_mode in (False, True):
            runs = []
            for b in (batch, noisy):
                rng = np.random.default_rng(seed) if train_mode else None
                probs, cache = model.forward(b, train_mode=train_mode, dropout_rng=rng)
                dlogits = np.random.default_rng(seed).normal(size=probs.shape)
                runs.append((probs, model.backward(cache, dlogits)))
            lstm = cache["lstm"]
            if train_mode:  # every training forward is packed
                assert "positions" in lstm
            else:  # the batch is on the intended side of PACK_SPAN_COST
                assert (lstm["spans"][-1][2] is not None) == packed
            (probs, grads), (noisy_probs, noisy_grads) = runs
            np.testing.assert_array_equal(probs, noisy_probs)
            for name in grads:
                np.testing.assert_array_equal(grads[name], noisy_grads[name], err_msg=name)


# What only backward reads: an inference forward keeps none of it.
STEP_HISTORY = {"steps", "X_p", "H_p"}


class TestTrainingForwardIsPacked:
    """Backward reads one cache format: a training forward is packed whatever
    its padding, even none, or too little to pack an inference forward."""

    @staticmethod
    def assert_packed(config, batch, sizes):
        model = seeded_model(config, 0, *sizes)
        _, cache = model.forward(batch, train_mode=True, dropout_rng=np.random.default_rng(0))
        lstm = cache["lstm"]
        assert "positions" in lstm
        assert not {"X", "Hs", "Cs"} & lstm.keys()

    @pytest.mark.parametrize("name", ["single one row", "single equal lengths",
                                      "multi one vote"])
    def test_at_bench_widths(self, name):
        config, batch = bench_width_case(*BENCH_WIDTH_CASES[name](np.random.default_rng(3)),
                                         seed=3)
        self.assert_packed(config, batch, BENCH_SIZES)

    @pytest.mark.parametrize("lengths,T", PACKED_EDGE_CASES)
    def test_on_packed_edge_cases(self, lengths, T):
        config, batch = packed_edge_case(lengths, T, 4)
        self.assert_packed(config, batch, (VOCAB_SIZE, N_CLASSES))


class TestInferenceMemory:
    def test_forward_keeps_no_step_history(self):
        """An inference forward keeps only what prediction reads. At the
        bench's single widths, on a batch of 32 rows of 96 tokens each, no
        padding (validation's longest chunk), it peaks below the (T, 2, N,
        4H) gate array plus one (T + 1, 2, N, H) float64 array: the inputs,
        the cell states and each step's activations are not kept beside
        them. It has more than INFER_BLOCK positions, so it is packed, one
        span of every row."""
        T, N = 96, 32
        config, batch = bench_width_case("single", N, T, np.full(N, T), seed=0)
        model = seeded_model(config, 0, *BENCH_SIZES)
        tracemalloc.start()
        try:
            _, cache = model.forward(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        H = config.hidden_size
        assert peak < T * 2 * N * 4 * H * 8 + (T + 1) * 2 * N * H * 8
        lstm = cache["lstm"]
        assert "positions" in lstm and lstm["spans"] == [(0, T, None)]
        assert not STEP_HISTORY & lstm.keys()


def inference_peak(fn):
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedInferenceMemory:
    """An inference forward's working set is one block of INFER_BLOCK stepped
    positions, their gates and inputs, plus what each step works in over its
    N rows, a few (2, N, 4H) arrays: the bound below counts (2 * INFER_BLOCK
    + 8 * N) positions of (2, 4H) float64. A forward that takes every
    position at once, as validation's longest chunk and a predict_many group
    forward did, exceeds it."""

    @staticmethod
    def bound(N, H):
        return (2 * nn.INFER_BLOCK + 8 * N) * 2 * 4 * H * 8

    @pytest.mark.parametrize("budget", [128, None])
    def test_validation_chunk(self, budget):
        """forward_samples over 32 rows of 96 tokens at the bench's single
        widths, validation's longest chunk: it peaked at about 11 MB with the
        whole (T + 1, 2, N, 4H) gate array."""
        vocab = tokenizers.build_vocab(["ab1"], "char", 30)
        config = TrainingConfig(mode="single", embedding_dim=32, hidden_size=48,
                                feature_dim=32, dense_widths=(96,), dropout=0.3, max_len=96)
        model = seeded_model(config, 0, len(vocab), BENCH_SIZES[1])
        samples = [augment.SingleSequenceSample(("ab1" * 40,))] * 32
        feats = np.random.default_rng(0).normal(size=(32, N_FEATURES))
        token_cache = {}  # warm, as validation's is after the first epoch

        def run():
            forward_samples(model, samples, feats, vocab, 32, token_cache)

        run()
        with mock.patch.object(nn, "INFER_BLOCK", budget or nn.INFER_BLOCK):
            assert inference_peak(run) < self.bound(32, config.hidden_size)

    @pytest.mark.parametrize("budget", [128, None])
    @pytest.mark.parametrize("kind", ["no padding", "packed"])
    def test_multi_group_forward(self, kind, budget):
        """One multi forward of 250 slot texts of up to 14 tokens at the
        bench's multi widths, the size of a predict_many group's: taken at
        once, it peaked at about 9.7 MB with no padding and 6.5 MB with
        spread lengths (packed). It has more than INFER_BLOCK positions, so
        it is packed either way; with no padding, one span of every row."""
        lengths = np.full(250, 14)
        if kind == "packed":
            lengths[1:] = np.random.default_rng(0).integers(1, 15, size=249)
        config, batch = bench_width_case("multi", 250, 14, lengths, seed=0)
        model = seeded_model(config, 0, *BENCH_SIZES)
        with mock.patch.object(nn, "INFER_BLOCK", budget or nn.INFER_BLOCK):
            peak = inference_peak(lambda: model.forward(batch))
            _, cache = model.forward(batch)
        lstm = cache["lstm"]
        assert "positions" in lstm
        assert (lstm["spans"] == [(0, 14, None)]) == (kind == "no padding")
        assert peak < self.bound(250, config.hidden_size)


def assert_recompute_exact(config, batch, seed, sizes=(VOCAB_SIZE, N_CLASSES), packed=False):
    """Backward on an inference forward's cache, which recomputes the step
    history, gives the bytes of backward on a training forward's cache, at
    dropout 0 so both forwards compute the same probabilities. packed: pack
    every padded inference forward (a span cost of 0), as
    assert_equals_oracle does."""
    model = seeded_model(dataclasses.replace(config, dropout=0.0), seed, *sizes)
    runs = []
    for train_mode in (False, True):
        with mock.patch.object(nn, "PACK_SPAN_COST", 0 if packed else nn.PACK_SPAN_COST):
            probs, cache = model.forward(batch, train_mode=train_mode)
        # only a training forward keeps the step history
        assert bool(STEP_HISTORY & cache["lstm"].keys()) == train_mode
        dlogits = np.random.default_rng(seed).normal(size=probs.shape)
        runs.append((probs, model.backward(cache, dlogits)))
    (probs, grads), (train_probs, train_grads) = runs
    assert probs.tobytes() == train_probs.tobytes()
    assert grads.keys() == train_grads.keys()
    for name in grads:
        assert grads[name].tobytes() == train_grads[name].tobytes(), name


class TestInferenceBackwardRecomputes:
    @settings(max_examples=100, deadline=None)
    @given(encoder_cases(), st.booleans())
    def test_byte_equal_to_training_cache(self, case, packed):
        config, sizes, batch, seed = case
        assert_recompute_exact(config, batch, seed, sizes, packed)

    @settings(max_examples=100, deadline=None)
    @given(padded_cases())
    def test_byte_equal_on_padded_batches(self, case):
        config, batch, _, seed = case
        assert_recompute_exact(config, batch, seed)

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("lengths,T", PACKED_EDGE_CASES)
    def test_byte_equal_on_packed_edge_cases(self, lengths, T, width):
        config, batch = packed_edge_case(lengths, T, width)
        assert_recompute_exact(config, batch, 5, packed=True)

    @pytest.mark.parametrize("name", list(BENCH_WIDTH_CASES))
    def test_byte_equal_at_bench_widths(self, name):
        config, batch = bench_width_case(*BENCH_WIDTH_CASES[name](np.random.default_rng(1)),
                                         seed=1)
        assert_recompute_exact(config, batch, 1, BENCH_SIZES)


# budgets small enough to cut the random and edge-case batches into many blocks
INFER_BUDGETS = [1, 2, 5, 16]


def assert_blocked_inference_exact(config, batch, seed, sizes=(VOCAB_SIZE, N_CLASSES),
                                   packed=False):
    """An inference forward, which takes x @ Wx + b a block of steps at a time
    (nn.INFER_BLOCK), gives the probabilities of a training forward at
    dropout 0, which takes every step at once, and of one masked loop per
    direction (OracleModel), bit for bit; backward on its cache gives the
    bytes of backward on the training cache (assert_recompute_exact). Only a
    packed forward is cut into blocks. Returns the number of blocks the
    inference forward took."""
    config = dataclasses.replace(config, dropout=0.0)
    model = seeded_model(config, seed, *sizes)
    blocks = []
    step_blocks = nn._step_blocks

    def spy(offsets):
        blocks.append(step_blocks(offsets))
        return blocks[-1]

    with mock.patch.object(nn, "PACK_SPAN_COST", 0 if packed else nn.PACK_SPAN_COST), \
            mock.patch.object(nn, "_step_blocks", spy):
        probs, cache = model.forward(batch)
        train_probs, _ = model.forward(batch, train_mode=True)
        oracle_probs, _ = OracleModel(config, params=model.params).forward(batch)
    np.testing.assert_array_equal(probs, train_probs)
    np.testing.assert_array_equal(probs, oracle_probs)
    assert_recompute_exact(config, batch, seed, sizes, packed)
    # only an inference forward of more than one block cuts its steps
    assert len(blocks) <= 1
    if blocks and len(blocks[0]) > 2:
        assert "positions" in cache["lstm"]  # packed
    return len(blocks[0]) - 1 if blocks else 1


class TestBlockedInference:
    @settings(max_examples=150, deadline=None)
    @given(encoder_cases(), st.booleans(), st.sampled_from(INFER_BUDGETS))
    def test_bit_equal_on_random_batches(self, case, packed, budget):
        config, sizes, batch, seed = case
        with mock.patch.object(nn, "INFER_BLOCK", budget):
            assert_blocked_inference_exact(config, batch, seed, sizes, packed)

    @settings(max_examples=100, deadline=None)
    @given(padded_cases(), st.sampled_from(INFER_BUDGETS))
    def test_bit_equal_on_padded_batches(self, case, budget):
        """Rows of length 0 and lone long rows, packed or not: a row's final
        state is read in the block where its length ends."""
        config, batch, _, seed = case
        with mock.patch.object(nn, "INFER_BLOCK", budget):
            assert_blocked_inference_exact(config, batch, seed)

    @pytest.mark.parametrize("budget", INFER_BUDGETS)
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("lengths,T", PACKED_EDGE_CASES)
    def test_bit_equal_on_packed_edge_cases(self, lengths, T, width, budget):
        """A packed T == 1 batch keeps its per-row (gemv) product, and a
        block of one stepped position its full-width one."""
        config, batch = packed_edge_case(lengths, T, width)
        with mock.patch.object(nn, "INFER_BLOCK", budget):
            assert_blocked_inference_exact(config, batch, 5, packed=True)

    @pytest.mark.parametrize("budget", [*INFER_BUDGETS, 64, None])
    @pytest.mark.parametrize("name", list(BENCH_WIDTH_CASES))
    def test_bit_equal_at_bench_widths(self, name, budget):
        """A small budget cuts every case of more positions into blocks of
        whole steps; at nn.INFER_BLOCK itself (None) a case of no more
        stepped positions is one block."""
        config, batch = bench_width_case(*BENCH_WIDTH_CASES[name](np.random.default_rng(2)),
                                         seed=2)
        with mock.patch.object(nn, "INFER_BLOCK", budget or nn.INFER_BLOCK):
            n_blocks = assert_blocked_inference_exact(config, batch, 2, BENCH_SIZES)
        if budget is not None:
            assert n_blocks > 1 or batch["lengths"].sum() <= budget
        elif batch["lengths"].sum() <= nn.INFER_BLOCK:
            assert n_blocks == 1


class TestDropout:
    def test_inverted_dropout_expectation(self):
        config = tiny_config(dropout=0.3)
        model = seeded_model(config, 3)
        batch = random_batch(config, np.random.default_rng(12))
        _, clean_cache = model.forward(batch, train_mode=False)
        reference = clean_cache["last_hidden"]
        rng = np.random.default_rng(99)
        n_draws = 10_000
        total = np.zeros_like(reference)
        for _ in range(n_draws):
            _, cache = model.forward(batch, train_mode=True, dropout_rng=rng)
            total += cache["last_hidden"]
        mean_act = total / n_draws
        scale = np.abs(reference).max()
        np.testing.assert_allclose(mean_act, reference, atol=0.02 * scale)

    def test_train_mode_requires_rng(self):
        config = tiny_config(dropout=0.3)
        model = seeded_model(config, 0)
        batch = random_batch(config, np.random.default_rng(13))
        with pytest.raises(ConfigError):
            model.forward(batch, train_mode=True)


class TestConfigValidation:
    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            tiny_config(dropout=1.0)

    def test_bad_aggregation(self):
        with pytest.raises(ConfigError):
            tiny_config("multi", aggregation="max")

    @pytest.mark.parametrize("field,value", [
        ("hidden_size", 0), ("embedding_dim", -1), ("dense_widths", (0,)), ("r", 0),
    ])
    def test_widths_below_one_rejected(self, field, value):
        # hidden_size=0 used to end training in a ZeroDivisionError
        with pytest.raises(ConfigError, match=">= 1"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field,value,name", [
        # numpy refuses both shapes outright, before asking for any memory
        ("hidden_size", 99999999999999999999, "lstm_fw_Wx"),
        ("embedding_dim", 2**61, "embedding"),
    ])
    def test_unallocatable_width_is_config_error(self, field, value, name):
        config = tiny_config(**{field: value})
        with pytest.raises(ConfigError, match=f"parameter {name} of shape"):
            init_params(config, VOCAB_SIZE, N_CLASSES, np.random.default_rng(0))

    def test_from_dict_checks_types(self):
        d = tiny_config().to_dict()
        with pytest.raises(ConfigError, match="hidden_size"):
            TrainingConfig.from_dict({**d, "hidden_size": "16"})

    def test_concatenation_widens_input(self):
        config = tiny_config("multi", r=4, aggregation="concatenation")
        assert text_dim(config) == 4 * 2 * config.hidden_size

    def test_round_trip_dict(self):
        config = tiny_config("multi", r=7)
        assert TrainingConfig.from_dict(config.to_dict()) == config


class DenseSlotModel(Model):
    """Model whose mean, sum and weighted_sum slot head writes the real slots'
    encodings into a zero (B, R, 2H) array and sums it over the slots, and
    whose backward reads that array, as the slot head did before it added
    the real slots only."""

    def _aggregate(self, cache):
        cfg = self.config
        enc = np.zeros((len(cache["counts"]), cfg.r, 2 * cfg.hidden_size))  # padded: zeros
        enc[cache["b"], cache["r"]] = cache["enc_rows"][cache["occ"]]
        cache["enc"] = enc
        if cfg.aggregation == "mean":
            return enc.sum(axis=1) / cache["counts"][:, None]
        if cfg.aggregation == "sum":
            return enc.sum(axis=1)
        return (enc * self.params["agg_w"][None, :, None]).sum(axis=1)

    def _aggregate_backward(self, cache, dtext, grads):
        b, r = cache["b"], cache["r"]
        if self.config.aggregation == "mean":
            return (dtext / cache["counts"][:, None])[b]
        if self.config.aggregation == "sum":
            return dtext[b]
        grads["agg_w"] += np.einsum("brh,bh->r", cache["enc"], dtext)
        return dtext[b] * self.params["agg_w"][r, None]


@st.composite
def slot_head_cases(draw):
    """A multi config and batch of samples of 1 to r real slots, padded slots
    after them, B = 1 and samples of one real slot among them, and agg_w away
    from its uniform start. The samples take their counts from a few, as a
    column's k samples share their count, so a batch has one count, one or
    two samples per count, or many."""
    aggregation = draw(st.sampled_from(["mean", "sum", "weighted_sum"]))
    r, B = draw(st.integers(1, 8)), draw(st.sampled_from([1, 1, 2, 3, 5, 8]))
    config = TrainingConfig(mode="multi", embedding_dim=draw(st.integers(1, 5)),
                            hidden_size=draw(st.integers(1, 5)), feature_dim=3,
                            dense_widths=(4,), dropout=0.0, aggregation=aggregation, r=r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = rng.integers(1, r + 1, size=draw(st.integers(1, B)))
    counts = patterns[rng.integers(0, len(patterns), size=B)]
    n_real = int(counts.sum())
    U = draw(st.integers(1, n_real))  # rows, each held by one real slot at least
    occ = rng.permutation(np.r_[np.arange(U), rng.integers(0, U, size=n_real - U)])
    T = draw(st.integers(1, 5))
    lengths = rng.integers(1, T + 1, size=U)
    mask = (np.arange(T) < lengths[:, None]).astype(np.int64)
    batch = {"ids": rng.integers(3, VOCAB_SIZE, size=(U, T)) * mask, "lengths": lengths,
             "occ": occ, "counts": counts, "feats": rng.normal(size=(B, N_FEATURES))}
    return config, batch, int(rng.integers(0, 2**32 - 1))


class TestSlotHeadReference:
    @settings(max_examples=200, deadline=None)
    @given(slot_head_cases(), st.booleans())
    def test_byte_equal_to_dense_slot_array(self, case, train_mode):
        """Adding the real slots only gives the probabilities and every
        gradient of the sum over a dense (B, R, 2H) array, byte for byte."""
        config, batch, seed = case
        params = init_params(config, VOCAB_SIZE, N_CLASSES, np.random.default_rng(seed))
        if "agg_w" in params:
            params["agg_w"] = np.random.default_rng(seed).normal(size=config.r)
        runs = []
        for model in (Model(config, params), DenseSlotModel(config, params)):
            probs, cache = model.forward(batch, train_mode=train_mode)
            dlogits = np.random.default_rng(seed).normal(size=probs.shape)
            runs.append((probs, model.backward(cache, dlogits)))
        (probs, grads), (dense_probs, dense_grads) = runs
        counts = batch["counts"]
        event(f"{len(set(counts.tolist()))} counts over {len(counts)} samples")
        assert probs.tobytes() == dense_probs.tobytes()
        assert grads.keys() == dense_grads.keys()
        for name in grads:
            assert grads[name].tobytes() == dense_grads[name].tobytes(), name


def padded_reversal(ids, lengths):
    """The reversal within each row's length for rows of any lengths: the
    padded positions map to themselves."""
    pos = np.arange(ids.shape[1])[None, :]
    rev = np.where(pos < lengths[:, None], lengths[:, None] - 1 - pos, pos)
    return np.take_along_axis(ids, rev, axis=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_reverse_within_length_equals_padded_formula(N, T, full, seed):
    rng = np.random.default_rng(seed)
    lengths = np.full(N, T) if full else rng.integers(0, T + 1, size=N)
    ids = rng.integers(0, VOCAB_SIZE, size=(N, T))
    event("every row full" if (lengths == T).all() else "some row padded")
    np.testing.assert_array_equal(nn._reverse_within_length(ids, lengths),
                                  padded_reversal(ids, lengths))


LSTM_NAMES = [f"lstm_{d}_{k}" for d in ("fw", "bw") for k in nn.LSTM_WEIGHTS]
PARAM_SOURCES = ["init_params", "by hand", "best params", "loaded"]


def made_params(source, corpus, tmp_path):
    """(config, params) as one place that makes parameters gives them."""
    if source in ("init_params", "by hand"):
        config = tiny_config()
        params = init_params(config, VOCAB_SIZE, N_CLASSES, np.random.default_rng(0))
        if source == "by hand":  # separate arrays, as a test might build them
            params = {name: value.copy() for name, value in params.items()}
        return config, params
    instances, split = corpus
    config = TrainingConfig(mode="single", epochs=1, **TINY_CONFIG)
    bundle, _ = train_model(instances, split, config, seed=3)
    if source == "loaded":
        save_bundle(bundle, tmp_path / "model.dcom")
        bundle = load_bundle(tmp_path / "model.dcom")
    return bundle.training, bundle.params


def assert_halves(params, stacks):
    """params' LSTM entries are views of the halves of the stacks, fw first."""
    for k, W in zip(nn.LSTM_WEIGHTS, stacks):
        fw, bw = params[f"lstm_fw_{k}"], params[f"lstm_bw_{k}"]
        assert W.shape == (2, *fw.shape), k
        for view, own, other in ((fw, W[0], W[1]), (bw, W[1], W[0])):
            assert np.shares_memory(view, own) and not np.shares_memory(view, other), k
            assert view.tobytes() == own.tobytes(), k


class TestStackedLSTMWeights:
    """The model holds each LSTM weight stacked over the two directions, and
    the named parameters are views of its halves, wherever they were made."""

    @pytest.mark.parametrize("source", PARAM_SOURCES)
    def test_entries_are_views_of_the_model_stacks(self, source, sanity_corpus, tmp_path):
        config, params = made_params(source, sanity_corpus, tmp_path)
        values = {name: params[name].copy() for name in LSTM_NAMES}
        before = {name: params[name] for name in LSTM_NAMES}
        model = Model(config, params)
        assert_halves(params, model.lstm_weights)
        for name in LSTM_NAMES:
            np.testing.assert_array_equal(params[name], values[name])
            # the layout is built where the parameters are made; only a dict
            # built by hand is restacked, by the first Model
            assert (params[name] is before[name]) == (source != "by hand"), name
        again = Model(config, params)
        assert all(a is b for a, b in zip(again.lstm_weights, model.lstm_weights))

    @pytest.mark.parametrize("source", PARAM_SOURCES)
    def test_adam_step_updates_views_and_stacks_alike(self, source, sanity_corpus, tmp_path):
        config, params = made_params(source, sanity_corpus, tmp_path)
        model = Model(config, params)
        stacks = [W.copy() for W in model.lstm_weights]
        plain = {name: value.copy() for name, value in params.items()}  # no views
        rng = np.random.default_rng(4)
        grads = {name: rng.normal(size=value.shape) for name, value in params.items()}
        adam_step(params, grads, OptimizerState(learning_rate=0.1))
        adam_step(plain, grads, OptimizerState(learning_rate=0.1))
        for name in params:
            assert params[name].tobytes() == plain[name].tobytes(), name
        for k, W, old in zip(nn.LSTM_WEIGHTS, model.lstm_weights, stacks):
            assert not np.array_equal(W, old), k
            assert W.tobytes() == np.stack([plain[f"lstm_fw_{k}"],
                                            plain[f"lstm_bw_{k}"]]).tobytes(), k
        assert_halves(params, model.lstm_weights)

    @pytest.mark.parametrize("source", PARAM_SOURCES)
    def test_perturbation_through_a_view_reaches_the_forward(self, source, sanity_corpus,
                                                             tmp_path):
        """numeric_gradients' pattern: a flat view of an entry, taken before
        the first Model where the parameters were made with the layout, and
        after it for a dict built by hand, moves the forward of a Model built
        before and of one built after."""
        config, params = made_params(source, sanity_corpus, tmp_path)
        if source == "by hand":  # the first Model rebinds the entries
            held = Model(config, params)
        flats = {name: params[name].ravel() for name in LSTM_NAMES}
        if source != "by hand":
            held = Model(config, params)
        batch = random_batch(config, np.random.default_rng(5), lengths=[3, 5])
        base = held.forward(batch)[0]
        for name, flat in flats.items():
            orig = flat[1]
            flat[1] = orig + 0.5
            by_value = {n: np.array(v) for n, v in params.items()}  # a fresh copy
            expected = Model(config, by_value).forward(batch)[0]
            assert not np.array_equal(expected, base), name
            for model in (held, Model(config, params)):
                assert model.forward(batch)[0].tobytes() == expected.tobytes(), name
            flat[1] = orig
