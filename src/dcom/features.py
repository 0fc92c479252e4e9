"""The 19 engineered statistical features of a column, plus z-score scaling.

Conventions (frozen by the test suite):
  - numeric characters are Unicode decimal digits, alphabetic are Unicode
    letters, special is anything that is neither letter, digit, nor whitespace;
  - words are maximal whitespace-separated runs;
  - entropy is base-2 Shannon entropy of the distinct-value frequencies;
  - std/skewness/kurtosis are population moments (kurtosis is excess);
  - zero-variance length distributions give skewness = kurtosis = 0;
  - mode ties resolve to the smallest length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ColumnInstance
from .errors import ConfigError

FEATURE_NAMES = (
    "std_numeric_chars",
    "std_alpha_chars",
    "entropy",
    "std_special_chars",
    "std_words",
    "mean_words",
    "mean_numeric_chars",
    "min_value_length",
    "kurtosis_length",
    "mean_special_chars",
    "number_of_values",
    "frac_cells_alpha",
    "frac_cells_numeric",
    "sum_length",
    "max_value_length",
    "skewness_length",
    "mean_alpha_chars",
    "median_length",
    "mode_length",
)

# Human-readable labels in the same order, for reports.
FEATURE_LABELS = (
    "Std of # of Numeric Characters in Cells",
    "Std of # of Alphabetic Characters in Cells",
    "Entropy",
    "Std of # of Special Characters in Cells",
    "Std of # of Words in Cells",
    "Mean # Words in Cells",
    "Mean # of Numeric Characters in Cells",
    "Minimum Value Length",
    "Kurtosis of the Length of Values",
    "Mean # Special Characters in Cells",
    "Number of Values",
    "Fraction of Cells with Alphabetical Characters",
    "Fraction of Cells with Numeric Characters",
    "Sum of the Length of Values",
    "Maximum Value Length",
    "Skewness of the Length of Values",
    "Mean # Alphabetic Characters in Cells",
    "Median Length of Values",
    "Mode Length of Values",
)


def _value_counts(value: str):
    """(numeric, alpha, special, words, length) of one value."""
    numeric = alpha = special = 0
    for ch in value:
        if ch.isdecimal():
            numeric += 1
        elif ch.isalpha():
            alpha += 1
        elif not ch.isspace():
            special += 1
    return numeric, alpha, special, len(value.split()), len(value)


def _skew_kurtosis(x: np.ndarray):
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        return 0.0, 0.0
    skew = np.mean(centered**3) / m2**1.5
    kurt = np.mean(centered**4) / m2**2 - 3.0
    return float(skew), float(kurt)


def extract_features(instance: ColumnInstance) -> np.ndarray:
    """Compute the 19 features of one column, in FEATURE_NAMES order."""
    values = instance.values
    n = len(values)

    # one contiguous (5, n) array: each row's mean and std is the pairwise sum
    # a 1-D array of that count would take, so the values are bit-identical
    per_value = list(map(_value_counts, values))
    counts = np.array(list(zip(*per_value)), dtype=np.float64)
    mean_numeric, mean_alpha, mean_special, mean_words, _ = counts.mean(axis=1)
    std_numeric, std_alpha, std_special, std_words, _ = counts.std(axis=1)
    # The integer statistics in plain Python: each is exact either way, and a
    # numpy call costs more than the few values of a column.
    n_alpha = sum(1 for c in per_value if c[1] > 0)
    n_numeric = sum(1 for c in per_value if c[0] > 0)
    ordered = sorted(c[4] for c in per_value)
    half = n // 2
    median = float(ordered[half]) if n % 2 else (ordered[half - 1] + ordered[half]) / 2

    freqs = np.array(list(Counter(values).values()), dtype=np.float64) / n
    entropy = float(-(freqs * np.log2(freqs)).sum()) if len(freqs) > 1 else 0.0

    skew, kurt = _skew_kurtosis(counts[4])
    length_counter = Counter(ordered)
    max_count = max(length_counter.values())
    mode_length = min(L for L, c in length_counter.items() if c == max_count)

    out = np.array(
        [
            std_numeric,
            std_alpha,
            entropy,
            std_special,
            std_words,
            mean_words,
            mean_numeric,
            float(ordered[0]),
            kurt,
            mean_special,
            float(n),
            n_alpha / n,
            n_numeric / n,
            float(sum(ordered)),
            float(ordered[-1]),
            skew,
            mean_alpha,
            median,
            float(mode_length),
        ],
        dtype=np.float64,
    )
    assert np.all(np.isfinite(out))
    return out


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature z-scoring with statistics fitted on training columns.

    Population std; a zero std is replaced by 1 so constant features pass
    through centered.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, feature_rows) -> "FeatureScaler":
        rows = np.asarray(feature_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ConfigError("scaler needs at least one feature row")
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=np.float64) - self.mean) / self.std
