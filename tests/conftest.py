import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dcom import ingest
from dcom.train import TrainingConfig, train_model


TINY_CONFIG = dict(
    embedding_dim=16, hidden_size=16, feature_dim=16, dense_widths=(32,),
    batch_size=16, learning_rate=3e-3, vocab_budget=300, max_len=64,
    max_len_per_slot=16,
)


@pytest.fixture(scope="session")
def sanity_corpus():
    spec = {"gender": "gender_codes", "description": "descriptions"}
    instances = ingest.generate_synthetic_corpus(spec, 50, seed=1)
    split = ingest.make_split(
        len(instances), seed=7, stratify_labels=[i.label for i in instances]
    )
    return instances, split


@pytest.fixture(scope="session")
def sanity_bundle(sanity_corpus):
    instances, split = sanity_corpus
    config = TrainingConfig(mode="single", epochs=20, **TINY_CONFIG)
    bundle, reports = train_model(instances, split, config, seed=3)
    return bundle, reports


@pytest.fixture(scope="session")
def sanity_multi_bundle(sanity_corpus):
    instances, split = sanity_corpus
    config = TrainingConfig(mode="multi", epochs=5, r=8, **TINY_CONFIG)
    bundle, _ = train_model(instances, split, config, seed=3)
    return bundle
