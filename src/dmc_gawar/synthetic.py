"""Seeded synthetic dataset builders for demos and tests.

Rows are blocked by class (all negatives first); the split utilities
stratify, so block order carries no information.  Every builder is a pure
function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabelVector


@dataclass(frozen=True)
class SyntheticDataset:
    matrix: FeatureMatrix
    labels: LabelVector
    informative: tuple[int, ...]


def _feature_names(m: int) -> tuple[str, ...]:
    return tuple(f"f{j}" for j in range(m))


def _block_labels(n_class0: int, n_class1: int) -> LabelVector:
    codes = np.concatenate([np.zeros(n_class0, dtype=int), np.ones(n_class1, dtype=int)])
    return LabelVector(codes, ("neg", "pos"))


def make_planted(
    n_class0: int,
    n_class1: int,
    m: int,
    n_informative: int,
    shift: float,
    seed: int,
) -> SyntheticDataset:
    """Noise plus ``n_informative`` columns whose class-1 rows sit ``shift``
    standard deviations higher.  Informative column indices are drawn
    without replacement from the same seed and reported."""
    if not 0 < n_informative <= m:
        raise ValueError("n_informative must be in 1..m")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_class0 + n_class1, m))
    informative = np.sort(rng.choice(m, size=n_informative, replace=False))
    values[n_class0:, informative] += shift
    return SyntheticDataset(
        FeatureMatrix(values, _feature_names(m)),
        _block_labels(n_class0, n_class1),
        tuple(int(j) for j in informative),
    )


def make_xor(reps: int = 1) -> SyntheticDataset:
    """The 2-D parity corner set, repeated; no single split has positive gain
    at the root, yet two levels classify it exactly."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    values = np.tile(corners, (reps, 1))
    codes = np.tile(labels, reps)
    order = np.argsort(codes, kind="stable")
    return SyntheticDataset(
        FeatureMatrix(values[order], _feature_names(2)),
        LabelVector(codes[order], ("neg", "pos")),
        (0, 1),
    )
