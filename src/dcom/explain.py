"""Engineered-feature importance from the trained feature-projection weights."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BundleError
from .features import FEATURE_LABELS, FEATURE_NAMES


@dataclass(frozen=True)
class ImportanceRow:
    rank: int
    feature: str
    score: float


@dataclass(frozen=True)
class ImportanceReport:
    rows: tuple[ImportanceRow, ...]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "feature", "score"])
            for row in self.rows:
                writer.writerow([row.rank, row.feature, f"{row.score:.6f}"])

    def format_table(self) -> str:
        width = max(len(r.feature) for r in self.rows)
        lines = [f"{'Rank':<5} {'Feature':<{width}} Score"]
        for row in self.rows:
            lines.append(f"{row.rank:<5} {row.feature:<{width}} {row.score:.2f}")
        return "\n".join(lines)


def importance_scores(weight_matrix: np.ndarray) -> np.ndarray:
    """Per-feature score: mean absolute weight over the projection units,
    normalized by the maximum (all zeros if the matrix is zero)."""
    W = np.asarray(weight_matrix, dtype=np.float64)
    scores = np.abs(W).mean(axis=1)
    top = scores.max()
    return scores / top if top > 0 else scores


def feature_importance(bundle, use_labels=False) -> ImportanceReport:
    """Rank the 19 engineered features by their learned projection weights."""
    if "feat_W" not in bundle.params:
        raise BundleError("bundle has no feature-projection layer")
    W = bundle.params["feat_W"]
    scores = importance_scores(W)
    names = FEATURE_LABELS if use_labels else FEATURE_NAMES
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    rows = tuple(
        ImportanceRow(rank=r + 1, feature=names[i], score=float(scores[i]))
        for r, i in enumerate(order)
    )
    return ImportanceReport(rows=rows)
