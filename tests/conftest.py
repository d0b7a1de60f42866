import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dmc_gawar.data import FeatureMatrix, LabelVector

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

# Property tests run the same examples on every run and stay quick; no
# example database is written.
settings.register_profile("tier1", derandomize=True, max_examples=150, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def reference_feature():
    """Worked 16-sample example: 6-wide mixed region at sorted positions
    5..10, hand-computed scores 6/16 and 0.7/3.15 + 0.6/8.3."""
    values = np.array(
        [1.8, 2.3, 2.4, 2.45, 2.9, 3.0, 3.1, 3.15, 3.2, 3.25, 3.3, 4.0, 4.2, 5.2, 5.5, 5.9]
    )
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1])
    return values, labels


def make_dataset(values, labels, class_names=("neg", "pos")):
    values = np.asarray(values, dtype=float)
    names = tuple(f"f{j}" for j in range(values.shape[1]))
    return FeatureMatrix(values, names), LabelVector(np.asarray(labels, dtype=int), class_names)


def random_dataset(n_class0, n_class1, m, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_class0 + n_class1, m))
    labels = np.concatenate([np.zeros(n_class0, dtype=int), np.ones(n_class1, dtype=int)])
    return make_dataset(values, labels)
