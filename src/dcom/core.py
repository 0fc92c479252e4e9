"""Core value types shared by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError, ParseError

# Separator used when joining column values into one text.  The bare token is
# what the tokenizer recognizes; the joined form carries one space on each side.
SEP_TOKEN = "<SEP>"
SEP_TEXT = " <SEP> "
# Every ColumnInstance escapes the separator in its values, so a text joined
# from them always splits back into those values.
SEP_ESCAPED = "<\\SEP>"

# Marker for a padded slot in multi-sequence inputs.
PAD_VALUE = ""


@dataclass(frozen=True)
class ColumnInstance:
    """One data column: an ordered list of raw cell values, optionally labeled."""

    values: tuple[str, ...]
    label: str | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ParseError("column has no values")
        # idempotent: an escaped value holds no SEP_TOKEN
        object.__setattr__(self, "values", tuple(v.replace(SEP_TOKEN, SEP_ESCAPED)
                                                 for v in self.values))

    @property
    def n(self) -> int:
        return len(self.values)


def make_instance(values, label=None) -> ColumnInstance:
    """Build a ColumnInstance from values of any type, each turned into a str."""
    return ColumnInstance(tuple(str(v) for v in values), label)


@dataclass(frozen=True)
class ClassVocabulary:
    """Stable bijection between class names and dense integer ids.

    Names are kept in lexicographic order so the mapping survives save/load.
    """

    names: tuple[str, ...]
    index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate class names")
        object.__setattr__(self, "index", {n: i for i, n in enumerate(self.names)})

    @classmethod
    def from_labels(cls, labels) -> "ClassVocabulary":
        return cls(tuple(sorted(set(labels))))

    def id_of(self, name: str) -> int:
        return self.index[name]

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name) -> bool:
        return name in self.index


def has_type(value, kind) -> bool:
    """isinstance for JSON values: bool is not a number, an int passes for a
    float, and a tuple is a list or tuple of ints."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(has_type(v, int) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_indices(indices, n, part):
    """ConfigError naming the first of a split part's indices outside [0, n)."""
    for i in indices:
        if not 0 <= i < n:
            raise ConfigError(f"{part} index {i} is outside [0, {n}): the dataset "
                              f"has {n} columns")


def check_disjoint(train, validation, test):
    """ConfigError naming the first index that a split lists twice, within one
    of its parts or across two."""
    seen = {}
    for part, indices in (("train", train), ("validation", validation), ("test", test)):
        for i in indices:
            if i in seen:
                raise ConfigError(f"index {i} is in {seen[i]} and again in {part}")
            seen[i] = part


# The values a TrainingConfig field may take.
MODES = ("single", "multi")
MULTI_MODES = ("pad", "with_replacement")
TOKENIZER_KINDS = ("char", "word", "wordpiece")
AGGREGATIONS = ("mean", "sum", "concatenation", "weighted_sum")
# Hard cap on multi-sequence slot count, for memory sanity.
MAX_SLOTS = 512


@dataclass
class TrainingConfig:
    """The training recipe, network included; a model bundle stores the one it
    was trained with. Every field is checked where the config is made."""

    mode: str = "single"
    embedding_dim: int = 64
    hidden_size: int = 128  # per direction; the encoder is always bidirectional
    feature_dim: int = 64  # width D of the engineered-feature projection
    dense_widths: tuple[int, ...] = (256,)
    dropout: float = 0.3
    aggregation: str = "mean"
    r: int = 45  # slot count, multi mode only
    multi_mode: str = "pad"
    tokenizer: str = "wordpiece"
    vocab_budget: int = 8000
    max_len: int = 128  # single-sequence token cap
    max_len_per_slot: int = 32  # multi-sequence per-slot cap
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-4
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    early_stop_patience: int = 15
    use_class_weights: bool = False

    def __post_init__(self):
        for key, allowed in (("mode", MODES), ("multi_mode", MULTI_MODES),
                             ("tokenizer", TOKENIZER_KINDS), ("aggregation", AGGREGATIONS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"config key {key!r} must be one of {allowed}, got "
                                  f"{getattr(self, key)!r}")
        for key in ("embedding_dim", "hidden_size", "feature_dim", "batch_size", "max_len",
                    "max_len_per_slot", "r", "vocab_budget", "plateau_patience",
                    "early_stop_patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"config key {key!r} must be >= 1, got {getattr(self, key)!r}")
        if any(width < 1 for width in self.dense_widths):
            raise ConfigError(f"config key 'dense_widths' must hold widths >= 1, got "
                              f"{self.dense_widths!r}")
        if self.mode == "multi" and self.r > MAX_SLOTS:
            raise ConfigError(f"config key 'r' must be <= {MAX_SLOTS} in multi mode, got "
                              f"{self.r!r}")
        if not 0 <= self.dropout < 1:  # also refuses NaN
            raise ConfigError(f"config key 'dropout' must be in [0, 1), got {self.dropout!r}")
        if self.epochs < 0:
            raise ConfigError(f"config key 'epochs' must be >= 0, got {self.epochs!r}")
        if not self.learning_rate > 0:  # also refuses NaN
            raise ConfigError(f"config key 'learning_rate' must be > 0, got "
                              f"{self.learning_rate!r}")
        if not 0 < self.plateau_factor <= 1:
            raise ConfigError(f"config key 'plateau_factor' must be in (0, 1], got "
                              f"{self.plateau_factor!r}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        """A value must have its default's type; an int passes for a float and a
        list of ints for a tuple, which is how JSON and config files carry them."""
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(d) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind = type(defaults[key])
            if not has_type(value, kind):
                raise ConfigError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
