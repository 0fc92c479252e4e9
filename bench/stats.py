"""Summary statistics the benchmark reports: medians, percentiles, F1, digests."""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import Counter
from fractions import Fraction

# The percentiles a timing may be reported at, lowest first.
STANDARD_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL = 10


def percentile(values, p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks.

    Rank p/100 * (n - 1) of the sorted values, as numpy's default method.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def samples_past(n: int, p: float) -> int:
    """How many of n sorted samples lie above the rank `percentile` reads at."""
    rank = Fraction(str(p)) / 100 * (n - 1)
    return n - 1 - math.floor(rank)


def tail_percentile(n: int, min_tail: int = MIN_TAIL) -> float | None:
    """The highest standard percentile with at least `min_tail` of n samples past it.

    None when even the median has fewer than `min_tail` samples above it.
    """
    usable = [p for p in STANDARD_PERCENTILES if samples_past(n, p) >= min_tail]
    return usable[-1] if usable else None


def median(values) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def weighted_f1(y_true, y_pred) -> float:
    """Per-class F1 averaged with weights equal to each class's true count.

    A missing prediction (None) counts as wrong for its true class.
    """
    if len(y_true) != len(y_pred) or not y_true:
        raise ValueError("label lists must be non-empty and of equal length")
    support = Counter(y_true)
    predicted = Counter(p for p in y_pred if p is not None)
    hits = Counter(t for t, p in zip(y_true, y_pred) if t == p)
    total = 0.0
    for label, count in support.items():
        tp = hits[label]
        if tp:
            precision = tp / predicted[label]
            recall = tp / count
            total += count * 2 * precision * recall / (precision + recall)
    return total / len(y_true)


def label_digest(labels) -> str:
    """Order-sensitive digest of a list of predicted labels."""
    text = "\n".join("" if label is None else label for label in labels)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
