"""Dataset loading, deterministic splitting, and synthetic corpus generation.

Canonical interchange format is JSON lines, one object per column:

    {"label": "day", "values": ["1", "2", "3"]}

A long-form CSV importer (``column_id,label,value`` rows) is provided because
column corpora commonly arrive that way too.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ClassVocabulary, check_disjoint, has_type, make_instance
from .errors import ConfigError, FormatError, ParseError


# ---------------------------------------------------------------------------
# Loading / saving


def read_text(path) -> str:
    """The file decoded as UTF-8; ParseError with the line of the first byte
    that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 byte {data[exc.start]:#04x}",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def load_jsonl(path):
    """Load the canonical JSONL format. Returns (instances, vocabulary)."""
    instances = []
    with io.StringIO(read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers an integer too long to convert, and
                # RecursionError is JSON nested too deeply to decode
                message = getattr(exc, "msg", exc)
                raise ParseError(f"invalid JSON: {message}", line=lineno) from exc
            if not isinstance(record, dict) or "values" not in record:
                raise ParseError("record must be an object with a 'values' key", line=lineno)
            values = record["values"]
            if not isinstance(values, list):
                raise ParseError("'values' must be a list", line=lineno)
            if len(values) == 0:
                raise ParseError("empty value list", line=lineno)
            if any(v is None or isinstance(v, (dict, list)) for v in values):
                raise ParseError("values must be strings or numbers, not null, "
                                 "objects or arrays", line=lineno)
            label = record.get("label")
            if label is not None and not isinstance(label, str):
                raise ParseError("'label' must be a string", line=lineno)
            instances.append(make_instance(values, label))
    vocab = ClassVocabulary.from_labels(i.label for i in instances if i.label is not None)
    return instances, vocab


def load_csv_long(path):
    """Load long-form CSV with header ``column_id,label,value``.

    All rows sharing a column_id form one instance, wherever they stand in
    the file, so a column is complete only at the end of the file. Its
    values are in file order, and the instances in the order of each
    column_id's first row.
    """
    groups: dict = {}
    order = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            return [], ClassVocabulary(())
        if [h.strip() for h in header] != ["column_id", "label", "value"]:
            raise FormatError(f"expected header 'column_id,label,value', got {header!r}")
        lineno = reader.line_num + 1  # a row's first physical line
        for row in reader:
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            column_id, label, value = row
            if column_id not in groups:
                groups[column_id] = (label, [])
                order.append(column_id)
            elif groups[column_id][0] != label:
                raise ParseError(
                    f"column {column_id!r} has conflicting labels "
                    f"{groups[column_id][0]!r} and {label!r}",
                    line=lineno,
                )
            groups[column_id][1].append(value)
            lineno = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num) from None
    instances = [make_instance(values, label or None) for label, values in (groups[c] for c in order)]
    vocab = ClassVocabulary.from_labels(i.label for i in instances if i.label is not None)
    return instances, vocab


def load_dataset(path, format="jsonl"):
    if format == "jsonl":
        return load_jsonl(path)
    if format == "csv_long":
        return load_csv_long(path)
    raise FormatError(f"unknown dataset format {format!r}")


def save_jsonl(instances, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            record = {"label": inst.label, "values": list(inst.values)}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def guess_format(path) -> str:
    return "csv_long" if str(path).endswith(".csv") else "jsonl"


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]
    seed: int
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    stratified: bool = True

    def save(self, path):
        manifest = {
            "seed": self.seed,
            "ratios": list(self.ratios),
            "stratified": self.stratified,
            "indices": {
                "train": list(self.train),
                "validation": list(self.validation),
                "test": list(self.test),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, path):
        """Read a manifest written by save; FormatError if it is malformed."""
        with open(path, encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers bytes that are not UTF-8, and
                # RecursionError is JSON nested too deeply to decode
                raise FormatError(f"{path}: split manifest is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise FormatError(f"{path}: split manifest must be a JSON object")
        for key in ("indices", "seed", "ratios"):
            if key not in manifest:
                raise FormatError(f"{path}: split manifest has no {key!r} key")
        idx = manifest["indices"]
        parts = {}
        for name in ("train", "validation", "test"):
            part = idx.get(name) if isinstance(idx, dict) else None
            if not isinstance(part, list) or not all(has_type(i, int) for i in part):
                raise FormatError(f"{path}: split indices {name!r} must be a list of integers")
            parts[name] = tuple(part)
        try:
            check_disjoint(**parts)
        except ConfigError as exc:
            raise FormatError(f"{path}: split indices overlap: {exc}") from None
        ratios = manifest["ratios"]
        if not isinstance(ratios, list) or not all(has_type(r, float) for r in ratios):
            raise FormatError(f"{path}: split ratios must be a list of numbers")
        if not has_type(manifest["seed"], int):
            raise FormatError(f"{path}: split seed must be an integer")
        stratified = manifest.get("stratified", True)
        if not has_type(stratified, bool):
            raise FormatError(f"{path}: split stratified must be true or false")
        return cls(
            seed=manifest["seed"],
            ratios=tuple(ratios),
            stratified=stratified,
            **parts,
        )


def _largest_remainder(n, ratios):
    """Split n into integer counts proportional to ratios.

    Remainders are assigned by largest fractional part; ties break in split
    order (train, validation, test).
    """
    quotas = [n * r for r in ratios]
    counts = [math.floor(q) for q in quotas]
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def make_split(n, ratios=(0.6, 0.2, 0.2), seed=0, stratify_labels=None) -> DatasetSplit:
    """Deterministic train/validation/test split of n instances.

    When stratify_labels is given, the split is stratified per class so each
    class lands within one instance of the requested proportions.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    if stratify_labels is None:
        groups = [list(range(n))]
    else:
        if len(stratify_labels) != n:
            raise ConfigError("stratify_labels length must equal n")
        by_label: dict = {}
        for i, label in enumerate(stratify_labels):
            by_label.setdefault(label, []).append(i)
        # unlabeled columns (None) form one group of their own, ordered first
        labels = sorted(by_label, key=lambda label: (label is not None, label or ""))
        groups = [by_label[label] for label in labels]
        small = [label for label in labels if len(by_label[label]) < 3]
        if small:
            warnings.warn(
                f"classes with fewer than 3 instances may miss a split: {small}",
                stacklevel=2,
            )
    for group in groups:
        shuffled = [group[i] for i in rng.permutation(len(group))]
        counts = _largest_remainder(len(group), ratios)
        start = 0
        for part, count in zip(parts, counts):
            part.extend(shuffled[start : start + count])
            start += count
    return DatasetSplit(
        train=tuple(sorted(parts[0])),
        validation=tuple(sorted(parts[1])),
        test=tuple(sorted(parts[2])),
        seed=seed,
        ratios=tuple(ratios),
        stratified=stratify_labels is not None,
    )


# ---------------------------------------------------------------------------
# Synthetic corpus generation

_STATE_CODES = [
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID",
    "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS",
    "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH", "OK",
    "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY",
]

_CATEGORY_WORDS = [
    "Education", "Poverty", "Unemployment", "Employment", "Health", "Housing",
    "Transport", "Energy", "Crime", "Environment", "Finance", "Tourism",
]

_DESCRIPTION_SUBJECTS = ["Deletes", "Edits", "Creates", "Removes", "Updates", "Stops", "Starts", "Validates"]
_DESCRIPTION_OBJECTS = [
    "the property", "the value of the field", "the current record", "all pending jobs",
    "the selected entry", "script execution", "the configuration", "the output file",
]


def _count(rng, lo=3, hi=12):
    return int(rng.integers(lo, hi + 1))


def _gen_day_numbers(rng):
    return [str(int(v)) for v in rng.integers(1, 32, size=_count(rng))]


def _gen_durations(rng):
    return [f"{int(rng.integers(0, 10))}:{int(rng.integers(0, 60)):02d}" for _ in range(_count(rng))]


def _gen_gender_codes(rng):
    return [["F", "M"][int(rng.integers(0, 2))] for _ in range(_count(rng, 2, 8))]


def _gen_state_codes(rng):
    return [_STATE_CODES[int(i)] for i in rng.integers(0, len(_STATE_CODES), size=_count(rng))]


def _gen_descriptions(rng):
    out = []
    for _ in range(_count(rng, 2, 6)):
        subject = _DESCRIPTION_SUBJECTS[int(rng.integers(0, len(_DESCRIPTION_SUBJECTS)))]
        obj = _DESCRIPTION_OBJECTS[int(rng.integers(0, len(_DESCRIPTION_OBJECTS)))]
        out.append(f"{subject} {obj}")
    return out


def _gen_isbn_like(rng):
    out = []
    for _ in range(_count(rng)):
        digits = rng.integers(0, 10, size=10)
        prefix = ["978", "979"][int(rng.integers(0, 2))]
        body = "".join(str(int(d)) for d in digits)
        out.append(f"{prefix}-{body[0]}-{body[1:4]}-{body[4:9]}-{body[9]}")
    return out


def _gen_ages(rng):
    return [f"{int(rng.integers(1, 100))} years" for _ in range(_count(rng))]


def _gen_categories(rng):
    return [_CATEGORY_WORDS[int(i)] for i in rng.integers(0, len(_CATEGORY_WORDS), size=_count(rng, 2, 6))]


def _gen_free_text(rng):
    words = _DESCRIPTION_OBJECTS + _CATEGORY_WORDS
    out = []
    for _ in range(_count(rng, 2, 6)):
        k = int(rng.integers(2, 6))
        out.append(" ".join(str(words[int(i)]) for i in rng.integers(0, len(words), size=k)))
    return out


def _gen_rank_like(rng):
    # Deliberately overlapping small-integer columns shared by the
    # rank/ranking/position confusion triple.
    k = _count(rng, 3, 14)
    return [str(int(i) + 1) for i in rng.permutation(k)]


GENERATORS = {
    "day_numbers": _gen_day_numbers,
    "small_ints": _gen_day_numbers,  # the same draws: integers in [1, 31]
    "durations": _gen_durations,
    "gender_codes": _gen_gender_codes,
    "state_codes": _gen_state_codes,
    "descriptions": _gen_descriptions,
    "isbn_like": _gen_isbn_like,
    "ages": _gen_ages,
    "categories": _gen_categories,
    "free_text": _gen_free_text,
    "rank_like": _gen_rank_like,
}

# Eight classes mirroring typical column corpora: used by the sanity benchmarks.
DEFAULT_CLASS_SPEC = {
    "day": "day_numbers",
    "duration": "durations",
    "gender": "gender_codes",
    "state": "state_codes",
    "description": "descriptions",
    "isbn": "isbn_like",
    "age": "ages",
    "category": "categories",
}

# The confusable triple of near-identical integer columns plus two easy classes.
CONFUSION_CLASS_SPEC = {
    "rank": "rank_like",
    "ranking": "rank_like",
    "position": "rank_like",
    "gender": "gender_codes",
    "isbn": "isbn_like",
}


def generate_synthetic_corpus(spec, n_per_class, seed=0):
    """Generate a labeled corpus with n_per_class columns for each class.

    spec maps class name -> generator name (a key of GENERATORS).
    Reproducible for a fixed (spec, n_per_class, seed).
    """
    if len(spec) < 2:
        raise ConfigError("need at least 2 classes")
    instances = []
    for class_index, class_name in enumerate(sorted(spec)):
        gen_name = spec[class_name]
        if not isinstance(gen_name, str) or gen_name not in GENERATORS:
            raise ConfigError(f"unknown generator {gen_name!r}")
        generator = GENERATORS[gen_name]
        for j in range(n_per_class):
            rng = np.random.default_rng([seed, class_index, j])
            instances.append(make_instance(generator(rng), class_name))
    return instances
