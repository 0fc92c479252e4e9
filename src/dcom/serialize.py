"""Model bundle persistence.

One binary file carries everything needed to predict: parameters, tokenizer
vocabulary, feature scaler, class vocabulary, training config and metadata,
plus the network those build ("arch": the training config's network fields
and the data's sizes), which loading checks.  Layout (all
integers little-endian):

    magic "DCOM" | version u32 | payload_len u64 | crc32 u32 | payload

    payload = header_len u32 | header JSON (UTF-8) | param buffers (float64 LE,
              in the header's listed order)

Saving is deterministic, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import ClassVocabulary, TrainingConfig, has_type
from .errors import BundleError, DcomError
from .features import FEATURE_NAMES, FeatureScaler
from .nn import param_shapes, stack_lstm
from .tokenizers import Vocabulary

MAGIC = b"DCOM"
FORMAT_VERSION = 1

# The header's required fields and their JSON types: a dict maps keys to the
# types of their values, a one-element list types every item of a list.
HEADER_FORMAT = {
    "arch": dict,
    "training": dict,
    "metadata": dict,
    "classes": [str],
    "vocab": {"kind": str, "tokens": [str]},
    "scaler": {"mean": [float], "std": [float]},
    "params": [{"name": str, "shape": [int]}],
}


@dataclass
class ModelBundle:
    params: dict
    vocab: Vocabulary
    scaler: FeatureScaler
    class_vocab: ClassVocabulary
    training: TrainingConfig
    metadata: dict = field(default_factory=dict)


def arch_header(training: TrainingConfig, vocab_size: int, n_classes: int) -> dict:
    """The header's "arch": the network a training config builds over data of
    these sizes."""
    d = training.to_dict()
    network = ("mode", "embedding_dim", "hidden_size", "feature_dim", "dense_widths",
               "dropout", "aggregation", "r")
    return {**{key: d[key] for key in network}, "vocab_size": vocab_size,
            "n_classes": n_classes, "n_features": len(FEATURE_NAMES)}


def _payload(bundle: ModelBundle) -> bytes:
    names = sorted(bundle.params)
    header = {
        "arch": arch_header(bundle.training, len(bundle.vocab), len(bundle.class_vocab)),
        "training": bundle.training.to_dict(),
        "metadata": bundle.metadata,
        "classes": list(bundle.class_vocab.names),
        "vocab": {"kind": bundle.vocab.kind, "tokens": list(bundle.vocab.tokens)},
        "scaler": {
            "mean": bundle.scaler.mean.tolist(),
            "std": bundle.scaler.std.tolist(),
        },
        "params": [
            {"name": n, "shape": list(bundle.params[n].shape)} for n in names
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    chunks = [struct.pack("<I", len(header_bytes)), header_bytes]
    for name in names:
        chunks.append(np.ascontiguousarray(bundle.params[name], dtype="<f8").tobytes())
    return b"".join(chunks)


def save_bundle(bundle: ModelBundle, path) -> None:
    payload = _payload(bundle)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(struct.pack("<I", zlib.crc32(payload)))
        fh.write(payload)


def _conforms(value, form) -> bool:
    """Whether a JSON value has the form (HEADER_FORMAT's notation). A list of
    a primitive type, such as the vocabulary's tokens, is checked in one
    has_type pass over its items, not one recursive call per item."""
    if isinstance(form, dict):
        return isinstance(value, dict) and all(
            key in value and _conforms(value[key], sub) for key, sub in form.items()
        )
    if isinstance(form, list):
        if not isinstance(value, list):
            return False
        if isinstance(form[0], (dict, list)):
            return all(_conforms(v, form[0]) for v in value)
        return all(map(has_type, value, itertools.repeat(form[0])))
    return has_type(value, form)


def _decode(payload: memoryview) -> ModelBundle:
    if len(payload) < 4:
        raise BundleError("truncated header")
    header_len = struct.unpack_from("<I", payload, 0)[0]
    header = json.loads(str(payload[4 : 4 + header_len], "utf-8"))
    if not _conforms(header, HEADER_FORMAT):
        raise BundleError("header lacks a field or has one of the wrong type")
    training = TrainingConfig.from_dict(header["training"])
    if training.to_dict() != header["training"]:
        raise BundleError("training config lacks a field")
    vocab = Vocabulary(kind=header["vocab"]["kind"], tokens=tuple(header["vocab"]["tokens"]))
    if vocab.kind != training.tokenizer:
        raise BundleError(f"vocabulary kind {vocab.kind!r} disagrees with the training "
                          f"config's tokenizer {training.tokenizer!r}")
    class_vocab = ClassVocabulary(tuple(header["classes"]))
    if header["arch"] != arch_header(training, len(vocab), len(class_vocab)):
        raise BundleError("arch disagrees with the training config, vocabulary and classes")
    if len(class_vocab) < 2:
        raise BundleError(f"a model needs 2 classes at least, got {list(class_vocab.names)}")
    scaler = FeatureScaler(
        mean=np.asarray(header["scaler"]["mean"], dtype=np.float64),
        std=np.asarray(header["scaler"]["std"], dtype=np.float64),
    )
    n_features = len(FEATURE_NAMES)
    if (scaler.mean.shape != (n_features,) or scaler.std.shape != (n_features,)
            or not np.all(np.isfinite(scaler.mean) & np.isfinite(scaler.std) & (scaler.std > 0))):
        raise BundleError("scaler disagrees with the feature count or has a bad entry")

    shapes = param_shapes(training, len(vocab), len(class_vocab))
    listed = [(p["name"], tuple(p["shape"])) for p in header["params"]]
    if listed != [(name, shapes[name]) for name in sorted(shapes)]:
        raise BundleError("parameter list does not match the architecture")
    offset = 4 + header_len
    params = {}
    for name, shape in listed:
        end = offset + 8 * math.prod(shape)
        if end > len(payload):
            raise BundleError(f"truncated parameter {name}")
        # payload is a view of the file's bytes, so each parameter is copied
        # once into an array of its own, the LSTM weights by stack_lstm into
        # the model's layout: views of one shared buffer made one-sample
        # predictions some 5% slower
        value = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(value)):
            raise BundleError(f"parameter {name} has a non-finite entry")
        params[name] = value if name.startswith("lstm_") else value.astype(np.float64)
        offset = end
    if offset != len(payload):
        raise BundleError("trailing bytes after the last parameter")
    stack_lstm(params)
    return ModelBundle(params=params, vocab=vocab, scaler=scaler, class_vocab=class_vocab,
                       training=training, metadata=header["metadata"])


def load_bundle(path) -> ModelBundle:
    """Read a bundle; any defect in the bytes raises BundleError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise BundleError(f"{path}: not a model bundle (bad magic)")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != FORMAT_VERSION:
        raise BundleError(f"{path}: unsupported format version {version}")
    payload_len = struct.unpack_from("<Q", blob, 8)[0]
    crc = struct.unpack_from("<I", blob, 16)[0]
    payload = memoryview(blob)[20 : 20 + payload_len]  # a view: no copy of the bytes
    if len(payload) != payload_len:
        raise BundleError(f"{path}: truncated bundle")
    if len(blob) != 20 + payload_len:
        raise BundleError(f"{path}: trailing bytes after the payload")
    if zlib.crc32(payload) != crc:
        raise BundleError(f"{path}: checksum mismatch")
    try:
        return _decode(payload)
    except (DcomError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable or invalid JSON and duplicate classes,
        # RecursionError JSON nested too deeply to decode
        raise BundleError(f"{path}: corrupt bundle: {exc}") from exc
