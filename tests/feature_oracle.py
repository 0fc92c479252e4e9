"""Two references for the 19 column statistics.

oracle_features is a straight-line reimplementation, deliberately independent
of the package: pure Python, no numpy, each statistic written out directly
from its definition.  It checks extract_features to a tolerance.

reference_extract_features is extract_features as it was with one numpy
reduction per statistic (each count its own 1-D array).  It checks the
stacked version bit for bit.
"""

import math
from collections import Counter

import numpy as np


def _mean(xs):
    return sum(xs) / len(xs)


def _pop_std(xs):
    mu = _mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))


def oracle_features(values):
    n = len(values)
    numeric = [sum(1 for ch in v if ch.isdecimal()) for v in values]
    alpha = [sum(1 for ch in v if ch.isalpha()) for v in values]
    special = [
        sum(1 for ch in v if not (ch.isdecimal() or ch.isalpha() or ch.isspace()))
        for v in values
    ]
    words = [len(v.split()) for v in values]
    lengths = [len(v) for v in values]

    entropy = 0.0
    for count in Counter(values).values():
        p = count / n
        entropy -= p * math.log2(p)

    mu = _mean(lengths)
    m2 = sum((x - mu) ** 2 for x in lengths) / n
    if m2 == 0.0:
        skew = kurt = 0.0
    else:
        m3 = sum((x - mu) ** 3 for x in lengths) / n
        m4 = sum((x - mu) ** 4 for x in lengths) / n
        skew = m3 / m2**1.5
        kurt = m4 / m2**2 - 3.0

    ordered = sorted(lengths)
    if n % 2 == 1:
        median = float(ordered[n // 2])
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0

    length_counts = Counter(lengths)
    top = max(length_counts.values())
    mode = min(length for length, c in length_counts.items() if c == top)

    return [
        _pop_std(numeric),
        _pop_std(alpha),
        entropy,
        _pop_std(special),
        _pop_std(words),
        _mean(words),
        _mean(numeric),
        float(min(lengths)),
        kurt,
        _mean(special),
        float(n),
        sum(1 for a in alpha if a > 0) / n,
        sum(1 for c in numeric if c > 0) / n,
        float(sum(lengths)),
        float(max(lengths)),
        skew,
        _mean(alpha),
        median,
        float(mode),
    ]


def _char_counts(value):
    numeric = alpha = special = 0
    for ch in value:
        if ch.isdecimal():
            numeric += 1
        elif ch.isalpha():
            alpha += 1
        elif not ch.isspace():
            special += 1
    return numeric, alpha, special


def _skew_kurtosis(x):
    m2 = np.mean((x - x.mean()) ** 2)
    if m2 == 0.0:
        return 0.0, 0.0
    centered = x - x.mean()
    skew = np.mean(centered**3) / m2**1.5
    kurt = np.mean(centered**4) / m2**2 - 3.0
    return float(skew), float(kurt)


def reference_extract_features(values):
    n = len(values)

    counts = np.array([_char_counts(v) for v in values], dtype=np.float64)
    numeric, alpha, special = counts[:, 0], counts[:, 1], counts[:, 2]
    words = np.array([len(v.split()) for v in values], dtype=np.float64)
    lengths = np.array([len(v) for v in values], dtype=np.float64)

    freqs = np.array(list(Counter(values).values()), dtype=np.float64) / n
    entropy = float(-(freqs * np.log2(freqs)).sum()) if len(freqs) > 1 else 0.0

    skew, kurt = _skew_kurtosis(lengths)
    length_counter = Counter(len(v) for v in values)
    max_count = max(length_counter.values())
    mode_length = min(L for L, c in length_counter.items() if c == max_count)

    return np.array(
        [
            numeric.std(),
            alpha.std(),
            entropy,
            special.std(),
            words.std(),
            words.mean(),
            numeric.mean(),
            lengths.min(),
            kurt,
            special.mean(),
            float(n),
            float(np.count_nonzero(alpha > 0)) / n,
            float(np.count_nonzero(numeric > 0)) / n,
            lengths.sum(),
            lengths.max(),
            skew,
            alpha.mean(),
            float(np.median(lengths)),
            float(mode_length),
        ],
        dtype=np.float64,
    )


def random_column(rng, max_values=20):
    """One random synthetic column mixing digits, letters, punctuation, unicode."""
    alphabet = list("abcXYZ 019!@#-_.éλ字\t")
    n = int(rng.integers(1, max_values + 1))
    values = []
    for _ in range(n):
        k = int(rng.integers(0, 12))
        values.append("".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=k)))
    return values
