"""Semantic data-type detection for tabular columns.

Columns are classified from two inputs: their raw cell values, restructured
into order-free permutation samples, and 19 engineered statistics, both fed
to a compact multi-input recurrent classifier.
"""

from .core import ClassVocabulary, ColumnInstance, make_instance
from .features import FEATURE_NAMES, FeatureScaler, extract_features
from .ingest import DatasetSplit, generate_synthetic_corpus, load_dataset, make_split
from .serialize import load_bundle, save_bundle
from .train import TrainingConfig, train_model
from .infer import evaluate, predict_kvote, predict_many
from .explain import feature_importance

__all__ = [
    "ClassVocabulary",
    "ColumnInstance",
    "make_instance",
    "FEATURE_NAMES",
    "FeatureScaler",
    "extract_features",
    "DatasetSplit",
    "generate_synthetic_corpus",
    "load_dataset",
    "make_split",
    "load_bundle",
    "save_bundle",
    "TrainingConfig",
    "train_model",
    "evaluate",
    "predict_kvote",
    "predict_many",
    "feature_importance",
]

__version__ = "0.1.0"
