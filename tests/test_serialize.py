import contextlib
import copy
import dataclasses
import io
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bundle_edit import join_bundle, sign_payload, split_bundle
from dcom import ingest
from dcom.cli import main
from dcom.core import (AGGREGATIONS, MODES, MULTI_MODES, TOKENIZER_KINDS, ClassVocabulary,
                       TrainingConfig)
from dcom.errors import BundleError, ConfigError
from dcom.features import FeatureScaler
from dcom.infer import predict_kvote
from dcom.nn import init_params
from dcom.core import has_type
from dcom.serialize import (FORMAT_VERSION, HEADER_FORMAT, MAGIC, ModelBundle, _conforms,
                             arch_header, load_bundle, save_bundle)
from dcom.tokenizers import build_vocab


def arch_of(bundle):
    return arch_header(bundle.training, len(bundle.vocab), len(bundle.class_vocab))


@pytest.fixture()
def saved(tmp_path, sanity_bundle):
    bundle, _ = sanity_bundle
    path = tmp_path / "model.dcom"
    save_bundle(bundle, path)
    return bundle, path


class TestRoundTrip:
    def test_magic_and_version(self, saved):
        _, path = saved
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:8], "little") == FORMAT_VERSION

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        _, path = saved
        loaded = load_bundle(path)
        second = tmp_path / "again.dcom"
        save_bundle(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_fields_survive(self, saved):
        bundle, path = saved
        loaded = load_bundle(path)
        assert arch_of(loaded) == arch_of(bundle)
        assert loaded.vocab.tokens == bundle.vocab.tokens
        assert loaded.class_vocab.names == bundle.class_vocab.names
        np.testing.assert_array_equal(loaded.scaler.mean, bundle.scaler.mean)
        assert loaded.metadata == bundle.metadata
        assert loaded.training == bundle.training
        for name in bundle.params:
            np.testing.assert_array_equal(loaded.params[name], bundle.params[name])

    def test_parameters_writable_and_loads_independent(self, saved):
        # one copy of the parameter bytes per load, each parameter native
        # C-contiguous float64 that the caller may edit in place; an edit
        # reaches neither another parameter nor a second load
        bundle, path = saved
        first, second = load_bundle(path), load_bundle(path)
        for name, value in first.params.items():
            assert value.dtype == np.float64 and value.dtype.isnative
            assert value.flags.writeable and value.flags.c_contiguous
            assert value.shape == bundle.params[name].shape
        name = sorted(first.params)[0]
        first.params[name] += 1.0
        for other, value in first.params.items():
            if other != name:
                np.testing.assert_array_equal(value, bundle.params[other])
        np.testing.assert_array_equal(first.params[name], bundle.params[name] + 1.0)
        for other, value in second.params.items():
            np.testing.assert_array_equal(value, bundle.params[other])

    def test_predictions_bitwise_identical(self, saved):
        bundle, path = saved
        loaded = load_bundle(path)
        rng = np.random.default_rng(0)
        for i in range(100):
            values = [
                "".join(map(str, rng.integers(0, 10, size=rng.integers(1, 6))))
                for _ in range(int(rng.integers(1, 6)))
            ]
            inst = ingest.make_instance(values)
            a = predict_kvote(bundle, inst, k=1, seed=i)
            b = predict_kvote(loaded, inst, k=1, seed=i)
            assert a.label == b.label
            np.testing.assert_array_equal(a.probabilities, b.probabilities)


class TestCorruption:
    def test_bad_magic(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(blob)
        with pytest.raises(BundleError, match="magic"):
            load_bundle(bad)

    def test_unknown_version(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(blob)
        with pytest.raises(BundleError, match="version"):
            load_bundle(bad)

    def test_truncated(self, saved, tmp_path):
        _, path = saved
        blob = path.read_bytes()[:-100]
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(blob)
        with pytest.raises(BundleError, match="truncated"):
            load_bundle(bad)

    def test_flipped_payload_byte(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(blob)
        with pytest.raises(BundleError, match="checksum"):
            load_bundle(bad)


def _damaged(saved, tmp_path, edit_header=None, param_bytes=None):
    """Write a copy of the saved bundle with an edited header or parameter
    bytes and a recomputed checksum; return its path."""
    _, path = saved
    header, params = split_bundle(path.read_bytes())
    if edit_header is not None:
        edit_header(header)
    bad = tmp_path / "damaged.dcom"
    bad.write_bytes(join_bundle(header, params if param_bytes is None else param_bytes(params)))
    return bad


def _drop_out_b(header):
    assert header["params"][-1]["name"] == "out_b"
    header["params"].pop()


class TestHeaderValidation:
    def test_untouched_copy_loads(self, saved, tmp_path):
        bundle, _ = saved
        assert load_bundle(_damaged(saved, tmp_path)).training == bundle.training

    @pytest.mark.parametrize("key", sorted(HEADER_FORMAT))
    def test_missing_header_key(self, saved, tmp_path, key):
        with pytest.raises(BundleError):
            load_bundle(_damaged(saved, tmp_path, lambda h: h.pop(key)))

    def test_missing_parameter(self, saved, tmp_path):
        n_classes = len(saved[0].class_vocab)
        bad = _damaged(saved, tmp_path, _drop_out_b, lambda p: p[: -8 * n_classes])
        with pytest.raises(BundleError, match="parameter list"):
            load_bundle(bad)

    def test_wrong_parameter_shape(self, saved, tmp_path):
        def edit(header):
            header["params"][-1]["shape"] = [1]
        with pytest.raises(BundleError, match="parameter list"):
            load_bundle(_damaged(saved, tmp_path, edit))

    @pytest.mark.parametrize("field,value", [
        ("mode", "multi"), ("r", 7), ("aggregation", "sum"), ("embedding_dim", 8),
        ("hidden_size", 8), ("feature_dim", 8), ("dense_widths", [8]), ("dropout", 0.5),
        # the vocabulary's kind is the tokenizer the config names
        ("tokenizer", "char"),
    ])
    def test_training_disagrees_with_arch(self, saved, tmp_path, field, value):
        def edit(header):
            header["training"][field] = value
        with pytest.raises(BundleError, match="disagrees"):
            load_bundle(_damaged(saved, tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda h: h["vocab"]["tokens"].pop(),
        lambda h: h["classes"].pop(),
        lambda h: h["scaler"]["std"].pop(),
        lambda h: h["scaler"]["std"].__setitem__(0, 0.0),
    ], ids=["vocab", "classes", "scaler-size", "scaler-zero-std"])
    def test_sizes_disagree_with_arch(self, saved, tmp_path, edit):
        with pytest.raises(BundleError, match="disagree"):
            load_bundle(_damaged(saved, tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda a: a.__setitem__("n_features", 20),
        lambda a: a.__setitem__("vocab_size", a["vocab_size"] + 1),
        lambda a: a.__setitem__("n_classes", 3),
        lambda a: a.__setitem__("hidden_size", 8),
        lambda a: a.pop("dropout"),
        lambda a: a.__setitem__("extra", 1),
    ], ids=["n_features", "vocab_size", "n_classes", "hidden_size", "missing", "extra"])
    def test_arch_disagrees_with_training(self, saved, tmp_path, edit):
        # the header's arch must be the one its training config builds
        with pytest.raises(BundleError, match="disagrees"):
            load_bundle(_damaged(saved, tmp_path, lambda h: edit(h["arch"])))

    @pytest.mark.parametrize("training", [
        {"learning_rte": 0.1}, {"max_len": "64"}, {"batch_size": 0}, {"epochs": -1}, [],
        {"learning_rate": -1.0}, {"plateau_factor": -0.5}, {"multi_mode": "bogus"},
        {"aggregation": "max"},
    ])
    def test_bad_training_config(self, saved, tmp_path, training):
        def edit(header):
            header["training"] = ({**header["training"], **training}
                                  if isinstance(training, dict) else training)
        with pytest.raises(BundleError):
            load_bundle(_damaged(saved, tmp_path, edit))

    def test_bytes_after_last_parameter(self, saved, tmp_path):
        with pytest.raises(BundleError, match="trailing"):
            load_bundle(_damaged(saved, tmp_path, param_bytes=lambda p: p + bytes(8)))

    @pytest.mark.parametrize("header_bytes", [b"", b"[1]", b"[" * 100000 + b"]" * 100000])
    def test_header_not_an_object(self, tmp_path, header_bytes):
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(sign_payload(struct.pack("<I", len(header_bytes)) + header_bytes))
        with pytest.raises(BundleError):
            load_bundle(bad)

    def test_bytes_after_payload(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "bad.dcom"
        bad.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(BundleError, match="trailing"):
            load_bundle(bad)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 400) | st.floats(-2, 2) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4,
)


def _paths(node, prefix=()):
    """Every path of keys and indices into a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def recursive_conforms(value, form) -> bool:
    """The header check as one recursive call per list item."""
    if isinstance(form, dict):
        return isinstance(value, dict) and all(
            key in value and recursive_conforms(value[key], sub) for key, sub in form.items()
        )
    if isinstance(form, list):
        return isinstance(value, list) and all(recursive_conforms(v, form[0]) for v in value)
    return has_type(value, form)


PRIMITIVES = {str: st.text(max_size=3), int: st.integers(), dict: st.dictionaries(
    st.text(max_size=3), JSON_VALUES, max_size=2), float: st.floats(-2, 2) | st.integers()}


def conforming(form):
    """JSON values of the form, in HEADER_FORMAT's notation."""
    if isinstance(form, dict):
        return st.fixed_dictionaries({k: conforming(v) for k, v in form.items()})
    if isinstance(form, list):
        return st.lists(conforming(form[0]), max_size=5)
    return PRIMITIVES[form]


@given(header=conforming(HEADER_FORMAT), data=st.data())
@settings(max_examples=300, deadline=None)
def test_header_check_equals_recursive_check(header, data):
    """The header check's answer is the recursive one's on headers of the
    form, and on headers with one value replaced, by one of any JSON type,
    or deleted: a list item, a list, a field."""
    paths = list(_paths(header))
    if paths and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(paths))
        parent = header
        for key in target[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[target[-1]]
        else:
            parent[target[-1]] = data.draw(JSON_VALUES)
    expected = recursive_conforms(header, HEADER_FORMAT)
    event(f"conforms: {expected}")
    assert _conforms(header, HEADER_FORMAT) == expected


@pytest.fixture(scope="module")
def saved_parts(sanity_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.dcom"
    save_bundle(sanity_bundle[0], path)
    header, params = split_bundle(path.read_bytes())
    # the vocabulary and scaler lists are long and alike: sample their paths
    # less often by keeping only their first entries
    paths = [p for p in _paths(header)
             if not (len(p) == 3 and p[0] in ("vocab", "scaler") and p[2] > 4)]
    return path.parent, header, params, paths


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_header_loads_or_raises_bundle_error(saved_parts, data):
    directory, header, params, paths = saved_parts
    header = copy.deepcopy(header)
    target = data.draw(st.sampled_from(paths))
    parent = header
    for key in target[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[target[-1]]
    else:
        parent[target[-1]] = data.draw(JSON_VALUES)
    cut = data.draw(st.just(0) | st.integers(-16, 16))
    path = directory / "damaged.dcom"
    path.write_bytes(join_bundle(header, params[:cut] if cut < 0 else params + bytes(cut)))
    try:
        bundle = load_bundle(path)
    except BundleError:
        return
    # what loads is a working bundle
    pred = predict_kvote(bundle, ingest.make_instance(["F", "M", "F"]), k=2)
    assert pred.label in bundle.class_vocab


@pytest.fixture(scope="module")
def column_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("columns") / "data.jsonl"
    ingest.save_jsonl([ingest.make_instance(["F", "M", "F"])], path)
    return path


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_non_finite_parameter_raises_bundle_error(sanity_bundle, column_file, data):
    """A bundle whose checksum is valid but one parameter entry is NaN or
    infinite does not load, and the commands that read it exit 2."""
    bundle = sanity_bundle[0]
    name = data.draw(st.sampled_from(sorted(bundle.params)))
    value = bundle.params[name].copy()
    value.flat[data.draw(st.integers(0, value.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    path = column_file.parent / "non_finite.dcom"
    save_bundle(dataclasses.replace(bundle, params={**bundle.params, name: value}), path)
    with pytest.raises(BundleError, match=f"parameter {name} has a non-finite entry"):
        load_bundle(path)
    out = str(column_file.parent / "out.jsonl")
    for argv in (["inspect", str(path)],
                 ["predict", "--model", str(path), "--data", str(column_file), "--out", out]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 2, argv[0]
        assert "Traceback" not in stderr.getvalue()


ENUMERATED = {"mode": MODES, "multi_mode": MULTI_MODES, "tokenizer": TOKENIZER_KINDS,
              "aggregation": AGGREGATIONS}


@st.composite
def config_dicts(draw):
    """Small training configs, each enumerated value in or out of its set."""
    rarely = st.sampled_from([False] * 7 + [True])
    d = {}
    for key, allowed in ENUMERATED.items():
        outside = draw(rarely)
        d[key] = draw(st.sampled_from(["", "bogus", allowed[0].upper()] if outside else allowed))
    width = st.builds(lambda bad, w: w - 9 if bad else w, rarely, st.integers(1, 8))
    for key in ("embedding_dim", "hidden_size", "feature_dim"):
        d[key] = draw(width)
    d["dense_widths"] = draw(st.lists(width, max_size=2))
    d["dropout"] = draw(st.floats(-0.5, 1.5))
    d["r"] = draw(st.integers(0, 600))
    d["max_len"] = d["max_len_per_slot"] = draw(st.integers(1, 16))
    return d


@given(d=config_dicts(), seed=st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_config_refused_or_works(d, seed, tmp_path_factory):
    """A config from_dict accepts builds a network whose forward gives finite
    probabilities, and its bundle survives save and load."""
    try:
        config = TrainingConfig.from_dict(d)
    except ConfigError as exc:
        event(f"refused: {str(exc).split(',')[0]}")
        return
    event("accepted")
    vocab = build_vocab(["F M 12 years", "ab ba 3:4"], config.tokenizer, 30)
    classes = ClassVocabulary(("x", "y"))
    bundle = ModelBundle(
        params=init_params(config, len(vocab), len(classes), np.random.default_rng(seed)),
        vocab=vocab, scaler=FeatureScaler(mean=np.zeros(19), std=np.ones(19)),
        class_vocab=classes, training=config)
    column = ingest.make_instance(["F", "M", "12 years"])
    pred = predict_kvote(bundle, column, k=1, seed=seed)
    assert np.all(np.isfinite(pred.probabilities))
    assert pred.probabilities.sum() == pytest.approx(1.0)
    path = tmp_path_factory.mktemp("drawn") / "model.dcom"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.training == config
    np.testing.assert_array_equal(predict_kvote(loaded, column, k=1, seed=seed).probabilities,
                                  pred.probabilities)
