"""The 19 engineered statistical features of a column, plus z-score scaling.

Conventions (frozen by the test suite):
  - numeric characters are Unicode decimal digits, alphabetic are Unicode
    letters, special is anything that is neither letter, digit, nor whitespace;
  - words are maximal whitespace-separated runs;
  - entropy is base-2 Shannon entropy of the distinct-value frequencies;
  - std/skewness/kurtosis are population moments (kurtosis is excess);
  - zero-variance length distributions give skewness = kurtosis = 0;
  - mode ties resolve to the smallest length.

extract_features takes a sequence of columns and makes one numpy pass per
group of columns with the same value count n: the group's per-value counts
form one C-contiguous (g, 5, n) array, and means, stds and the length moments
reduce along its last axis.  numpy sums a contiguous last axis pairwise, row
by row, exactly as it sums a 1-D array of the same n values, so each column's
statistics are bit-identical to a pass over that column alone, whatever its
neighbours.  Entropy is grouped the same way, by distinct-value count.  The
integer statistics stay in plain Python, per column.  Skewness and kurtosis
divide by m2 ** 1.5 and m2 ** 2 taken on Python floats, per column: numpy's
array power rounds some of these differently from the scalar power.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

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


def extract_features(instances) -> np.ndarray:
    """The 19 features of each column in the sequence instances, in
    FEATURE_NAMES order: an (m, 19) array whose row i belongs to instances[i]."""
    by_count = {}  # value count -> positions of the columns with that many values
    for i, instance in enumerate(instances):
        by_count.setdefault(len(instance.values), []).append(i)
    out = np.empty((len(instances), len(FEATURE_NAMES)), dtype=np.float64)
    for n, positions in by_count.items():
        _write_same_count(out, positions, [instances[i].values for i in positions], n)
    assert np.isfinite(out).all()
    return out


MOMENT_POWERS = np.array([[3.0], [4.0]])


def _write_same_count(out, positions, columns, n):
    """Write the features of columns, each of n values, to out's rows at positions."""
    per_values = [list(map(_value_counts, values)) for values in columns]
    # (g, 5, n): a sum along the contiguous last axis is pairwise, row by row,
    # as a 1-D array of n values sums, so every bit is the same.  np.mean and
    # np.std are this sum over n, written out once here.
    counts = np.array([tuple(zip(*per_value)) for per_value in per_values], dtype=np.float64)
    means = counts.sum(axis=2, keepdims=True) / n
    centered = counts - means
    variances = (centered * centered).sum(axis=2) / n
    stds = np.sqrt(variances).tolist()
    m2 = variances[:, 4].tolist()  # the length moments
    skew, kurt = [0.0] * len(m2), [0.0] * len(m2)  # where m2 is 0
    live = [j for j, v in enumerate(m2) if v != 0.0]
    if live:
        lengths = centered[:, 4] if len(live) == len(m2) else centered[live, 4]
        # the third and fourth powers in one (g, 2, n) array, each bit-equal
        # to lengths**3 and lengths**4, summed along its contiguous last axis
        m3, m4 = (np.power(lengths[:, None], MOMENT_POWERS).sum(axis=2) / n).T.tolist()
        for j, third, fourth in zip(live, m3, m4):
            # scalar powers: numpy's array power rounds some of them differently
            skew[j] = third / m2[j] ** 1.5
            kurt[j] = fourth / m2[j] ** 2 - 3.0

    entropy = [0.0] * len(columns)  # where a column holds one distinct value
    by_distinct = {}  # distinct-value count -> (columns' places, value frequencies)
    for j, values in enumerate(columns):
        value_counts = Counter(values).values()
        if len(value_counts) > 1:
            places, freqs = by_distinct.setdefault(len(value_counts), ([], []))
            places.append(j)
            freqs.append([c / n for c in value_counts])
    for places, freqs in by_distinct.values():
        freqs = np.array(freqs, dtype=np.float64)
        for j, h in zip(places, (-(freqs * np.log2(freqs)).sum(axis=1)).tolist()):
            entropy[j] = h

    for j, (i, per_value, mean, std) in enumerate(
            zip(positions, per_values, means[..., 0].tolist(), stds)):
        # The integer statistics in plain Python: each is exact either way, and
        # a numpy call costs more than the few values of a column.
        ordered = sorted(c[4] for c in per_value)
        half = n // 2
        median = float(ordered[half]) if n % 2 else (ordered[half - 1] + ordered[half]) / 2
        length_counter = Counter(ordered)
        max_count = max(length_counter.values())
        mode_length = min(L for L, c in length_counter.items() if c == max_count)
        out[i] = (std[0], std[1], entropy[j], std[2], std[3], mean[3], mean[0],
                  float(ordered[0]), kurt[j], mean[2], float(n),
                  sum(1 for c in per_value if c[1] > 0) / n,
                  sum(1 for c in per_value if c[0] > 0) / n, float(sum(ordered)),
                  float(ordered[-1]), skew[j], mean[1], median, float(mode_length))


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
        """Scale one features row, or every row of an (m, 19) matrix."""
        return (np.asarray(v, dtype=np.float64) - self.mean) / self.std
